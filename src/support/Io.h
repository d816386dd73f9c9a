//===- support/Io.h - Retrying descriptor I/O helpers -----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place short reads, short writes, and EINTR are handled. Raw
/// ::read/::write may transfer fewer bytes than asked (pipes, sockets,
/// signal interruption), and sprinkling ad-hoc retry loops over every
/// caller is how torn journal records and half-written frames happen.
/// pipeline/Journal, pipeline/Cache and support/Subprocess all route
/// their descriptor I/O through these helpers so the retry discipline
/// cannot drift between them.
///
/// All helpers expect blocking descriptors.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_IO_H
#define PIRA_SUPPORT_IO_H

#include <cstddef>
#include <sys/types.h>

namespace pira {
namespace io {

/// Reads exactly \p Size bytes into \p Buf, retrying EINTR and short
/// reads. Returns the number of bytes read: \p Size on success, less on
/// end-of-file, and -1 on a real error (errno preserved).
ssize_t readFull(int Fd, void *Buf, size_t Size);

/// Writes all \p Size bytes of \p Buf, retrying EINTR and short writes.
/// Returns true when everything landed; false on a real error (errno
/// preserved — EPIPE means the reader is gone).
bool writeFull(int Fd, const void *Buf, size_t Size);

/// Ignores SIGPIPE process-wide, once. A pipe reader that goes away
/// must surface as an EPIPE from the write that noticed — a structured,
/// attributable failure — not as an asynchronous process kill. Safe to
/// call from any thread, any number of times.
void ignoreSigpipe();

} // namespace io
} // namespace pira

#endif // PIRA_SUPPORT_IO_H

//===- support/Io.cpp - Retrying descriptor I/O helpers -------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Io.h"

#include <cerrno>
#include <csignal>
#include <mutex>

#include <unistd.h>

using namespace pira;

ssize_t io::readFull(int Fd, void *Buf, size_t Size) {
  char *Out = static_cast<char *>(Buf);
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::read(Fd, Out + Off, Size - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      break; // EOF: report the short count to the caller.
    Off += static_cast<size_t>(N);
  }
  return static_cast<ssize_t>(Off);
}

bool io::writeFull(int Fd, const void *Buf, size_t Size) {
  const char *In = static_cast<const char *>(Buf);
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::write(Fd, In + Off, Size - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void io::ignoreSigpipe() {
  static std::once_flag Once;
  std::call_once(Once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

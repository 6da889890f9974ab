//===- support/Socket.cpp - Unix-domain sockets and line IO --------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace typilus;

//===----------------------------------------------------------------------===//
// FileDesc
//===----------------------------------------------------------------------===//

void FileDesc::reset() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void FileDesc::shutdownRead() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RD);
}

//===----------------------------------------------------------------------===//
// UnixListener / connectUnix
//===----------------------------------------------------------------------===//

namespace {

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Err) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path '" + Path + "' is empty or longer than " +
             std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

} // namespace

UnixListener::~UnixListener() { close(); }

bool UnixListener::listenOn(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return false;
  FileDesc S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid()) {
    if (Err)
      *Err = errnoString("socket");
    return false;
  }
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // it is dead weight once no process listens on it.
  ::unlink(Path.c_str());
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Err)
      *Err = errnoString(("bind '" + Path + "'").c_str());
    return false;
  }
  if (::listen(S.fd(), 64) != 0) {
    if (Err)
      *Err = errnoString("listen");
    return false;
  }
  Listen = std::move(S);
  BoundPath = Path;
  return true;
}

FileDesc UnixListener::acceptConn() {
  for (;;) {
    int C = ::accept(Listen.fd(), nullptr, nullptr);
    if (C >= 0)
      return FileDesc(C);
    if (errno != EINTR)
      return FileDesc();
  }
}

void UnixListener::close() {
  Listen.reset();
  if (!BoundPath.empty()) {
    ::unlink(BoundPath.c_str());
    BoundPath.clear();
  }
}

bool typilus::connectUnix(const std::string &Path, FileDesc &Out,
                          std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return false;
  FileDesc S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid()) {
    if (Err)
      *Err = errnoString("socket");
    return false;
  }
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    if (Err)
      *Err = errnoString(("connect '" + Path + "'").c_str());
    return false;
  }
  Out = std::move(S);
  return true;
}

//===----------------------------------------------------------------------===//
// TcpListener / connectTcp
//===----------------------------------------------------------------------===//

namespace {

bool fillInetAddr(const std::string &Host, uint16_t Port, sockaddr_in &Addr,
                  std::string *Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Err)
      *Err = "'" + Host + "' is not an IPv4 address";
    return false;
  }
  return true;
}

} // namespace

TcpListener::~TcpListener() { close(); }

bool TcpListener::listenOn(const std::string &Host, uint16_t Port,
                           std::string *Err) {
  sockaddr_in Addr;
  if (!fillInetAddr(Host, Port, Addr, Err))
    return false;
  FileDesc S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid()) {
    if (Err)
      *Err = errnoString("socket");
    return false;
  }
  // Without SO_REUSEADDR a daemon restart would fight its predecessor's
  // TIME_WAIT connections for the port.
  int One = 1;
  ::setsockopt(S.fd(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Err)
      *Err = errnoString(
          ("bind " + Host + ":" + std::to_string(Port)).c_str());
    return false;
  }
  if (::listen(S.fd(), 64) != 0) {
    if (Err)
      *Err = errnoString("listen");
    return false;
  }
  // Port 0 delegated the choice to the kernel; read back what it picked.
  sockaddr_in Bound;
  socklen_t Len = sizeof(Bound);
  if (::getsockname(S.fd(), reinterpret_cast<sockaddr *>(&Bound), &Len) != 0) {
    if (Err)
      *Err = errnoString("getsockname");
    return false;
  }
  Listen = std::move(S);
  BoundPort = ntohs(Bound.sin_port);
  return true;
}

FileDesc TcpListener::acceptConn() {
  for (;;) {
    int C = ::accept(Listen.fd(), nullptr, nullptr);
    if (C >= 0)
      return FileDesc(C);
    if (errno != EINTR)
      return FileDesc();
  }
}

void TcpListener::close() {
  Listen.reset();
  BoundPort = 0;
}

bool typilus::connectTcp(const std::string &Host, uint16_t Port, FileDesc &Out,
                         std::string *Err) {
  sockaddr_in Addr;
  if (!fillInetAddr(Host, Port, Addr, Err))
    return false;
  FileDesc S(::socket(AF_INET, SOCK_STREAM, 0));
  if (!S.valid()) {
    if (Err)
      *Err = errnoString("socket");
    return false;
  }
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    if (Err)
      *Err = errnoString(
          ("connect " + Host + ":" + std::to_string(Port)).c_str());
    return false;
  }
  setTcpNoDelay(S.fd());
  Out = std::move(S);
  return true;
}

void typilus::setTcpNoDelay(int Fd) {
  int One = 1;
  // Fails with ENOTSUP/EOPNOTSUPP on Unix-domain sockets; by design.
  (void)::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

//===----------------------------------------------------------------------===//
// writeAll / readChunk / LineReader
//===----------------------------------------------------------------------===//

bool typilus::writeAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    // send(MSG_NOSIGNAL) keeps a vanished peer an error instead of a
    // process-killing SIGPIPE; plain files/pipes (stdio mode) get write().
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Data.data(), Data.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false; // includes EAGAIN from an expired SO_SNDTIMEO
    }
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

bool typilus::setSendTimeout(int Fd, int Seconds) {
  timeval TV;
  TV.tv_sec = Seconds;
  TV.tv_usec = 0;
  return ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV)) == 0;
}

ReadStatus typilus::readChunk(int Fd, int WakeFd, std::string &Buf) {
  if (WakeFd >= 0) {
    pollfd P[2];
    P[0] = pollfd{Fd, POLLIN, 0};
    P[1] = pollfd{WakeFd, POLLIN, 0};
    int R = ::poll(P, 2, -1);
    if (R < 0 && errno != EINTR)
      return ReadStatus::Error;
    if (R < 0 || P[1].revents)
      return ReadStatus::Interrupted;
    // Fall through to read(): P[0] is readable (or hung up, so Eof).
  }
  char Chunk[4096];
  ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
  if (N < 0)
    return errno == EINTR ? ReadStatus::Interrupted : ReadStatus::Error;
  if (N == 0)
    return ReadStatus::Eof;
  Buf.append(Chunk, static_cast<size_t>(N));
  return ReadStatus::Data;
}

LineReader::Status LineReader::next(std::string &Out) {
  for (;;) {
    // Scan only bytes not seen before; Buf never exceeds MaxBytes + one
    // read chunk even against a peer that streams forever without '\n'.
    size_t NL = Buf.find('\n', Scanned);
    if (NL != std::string::npos) {
      if (Discarding) {
        Buf.erase(0, NL + 1);
        Scanned = 0;
        Discarding = false;
        return Status::TooLong;
      }
      Out.assign(Buf, 0, NL);
      if (!Out.empty() && Out.back() == '\r')
        Out.pop_back();
      Buf.erase(0, NL + 1);
      Scanned = 0;
      return Status::Line;
    }
    Scanned = Buf.size();
    if (!Discarding && Buf.size() > MaxBytes) {
      Buf.clear();
      Scanned = 0;
      Discarding = true;
    } else if (Discarding) {
      Buf.clear();
      Scanned = 0;
    }
    if (SawEof) { // drained the buffer and the fd: partial line is dropped
      if (Discarding) {
        Discarding = false; // report once; the next call is a clean Eof
        return Status::TooLong;
      }
      return Status::Eof;
    }

    switch (readChunk(Fd, WakeFd, Buf)) {
    case ReadStatus::Data:
      break;
    case ReadStatus::Eof:
      SawEof = true;
      break;
    case ReadStatus::Interrupted:
      return Status::Interrupted;
    case ReadStatus::Error:
      return Status::Error;
    }
  }
}

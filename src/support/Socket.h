//===- support/Socket.h - Unix-domain sockets and line IO ---------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport under the serving daemon (docs/ARCHITECTURE.md
/// "Serving"): RAII file descriptors, Unix-domain and TCP stream
/// listeners, client connectors, and a buffered newline-delimited reader
/// with a hard per-line cap (the protocol's oversized-request guard).
/// POSIX-only, like the rest of the build; everything reports failures
/// through `std::string *Err` out-parameters instead of exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SUPPORT_SOCKET_H
#define TYPILUS_SUPPORT_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace typilus {

/// Move-only owner of one POSIX file descriptor.
class FileDesc {
public:
  FileDesc() = default;
  explicit FileDesc(int Fd) : Fd(Fd) {}
  ~FileDesc() { reset(); }

  FileDesc(FileDesc &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  FileDesc &operator=(FileDesc &&O) noexcept {
    if (this != &O) {
      reset();
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }
  FileDesc(const FileDesc &) = delete;
  FileDesc &operator=(const FileDesc &) = delete;

  int fd() const { return Fd; }
  bool valid() const { return Fd >= 0; }
  /// Closes the descriptor (idempotent).
  void reset();
  /// `shutdown(SHUT_RD)`: wakes a blocked reader with EOF while keeping
  /// the write side open — the daemon's drain-on-SIGTERM primitive.
  void shutdownRead();

private:
  int Fd = -1;
};

/// A listening Unix-domain stream socket bound to a filesystem path.
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener();

  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Binds and listens on \p Path (unlinking a stale socket file first).
  /// Paths longer than sockaddr_un allows are rejected.
  bool listenOn(const std::string &Path, std::string *Err);

  /// Accepts one connection; blocks. \returns an invalid FileDesc on
  /// error or after close(). EINTR is retried.
  FileDesc acceptConn();

  /// Closes the listening socket (acceptConn unblocks) and removes the
  /// socket file.
  void close();

  int fd() const { return Listen.fd(); }
  const std::string &path() const { return BoundPath; }

private:
  FileDesc Listen;
  std::string BoundPath;
};

/// Connects to a Unix-domain listener at \p Path.
bool connectUnix(const std::string &Path, FileDesc &Out, std::string *Err);

/// A listening TCP socket (IPv4). The serving daemon's `--port`
/// transport; identical accept surface to UnixListener so the daemon's
/// accept loop is shared between the two.
class TcpListener {
public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener &) = delete;
  TcpListener &operator=(const TcpListener &) = delete;

  /// Binds \p Host:\p Port (SO_REUSEADDR) and listens. \p Host must be a
  /// dotted-quad address ("127.0.0.1", "0.0.0.0"); \p Port 0 picks an
  /// ephemeral port — port() reports the one actually bound (how tests
  /// and the bench avoid clashes).
  bool listenOn(const std::string &Host, uint16_t Port, std::string *Err);

  /// Accepts one connection; blocks. \returns an invalid FileDesc on
  /// error or after close(). EINTR is retried.
  FileDesc acceptConn();

  /// Closes the listening socket (acceptConn unblocks).
  void close();

  int fd() const { return Listen.fd(); }
  uint16_t port() const { return BoundPort; }

private:
  FileDesc Listen;
  uint16_t BoundPort = 0;
};

/// Connects to a TCP listener at \p Host:\p Port (IPv4 dotted-quad).
bool connectTcp(const std::string &Host, uint16_t Port, FileDesc &Out,
                std::string *Err);

/// Disables Nagle on a TCP connection so one-line responses leave
/// immediately instead of waiting out the coalescing timer. A no-op
/// failure on non-TCP fds (the shared accept loop calls it on Unix
/// connections too).
void setTcpNoDelay(int Fd);

/// Writes all of \p Data to \p Fd, retrying partial writes and EINTR.
/// SIGPIPE is suppressed for sockets (MSG_NOSIGNAL). \returns false on
/// any other error (e.g. the peer vanished, or a send timeout set with
/// setSendTimeout expired).
bool writeAll(int Fd, std::string_view Data);

/// Caps how long one send() to \p Fd may block (SO_SNDTIMEO). The
/// daemon sets this on every connection so a client that stops reading
/// cannot stall the dispatcher: after \p Seconds of back-pressure the
/// write fails, the slow client forfeits that response, and serving
/// continues.
bool setSendTimeout(int Fd, int Seconds);

/// The outcome of one readChunk call.
enum class ReadStatus { Data, Eof, Interrupted, Error };

/// One step of a buffered stream reader: waits for \p Fd to become
/// readable, then appends at most 4 KiB of it to \p Buf. When \p WakeFd
/// >= 0 it is polled alongside \p Fd, and its becoming readable returns
/// Interrupted before any read; so does EINTR in the poll or the read,
/// since a signal delivered between reads would otherwise be lost. A
/// zero-byte read is Eof; any other failure is Error.
ReadStatus readChunk(int Fd, int WakeFd, std::string &Buf);

/// Buffered reader of '\n'-terminated lines with a hard per-line byte
/// cap. An overlong line is discarded through its terminating newline
/// (unbounded input cannot exhaust memory) and reported as TooLong; the
/// reader stays usable for subsequent lines.
class LineReader {
public:
  enum class Status {
    Line,        ///< \p Out holds one complete line (newline stripped).
    Eof,         ///< Peer closed; unterminated trailing bytes are dropped.
    TooLong,     ///< Line exceeded the cap and was discarded.
    Error,       ///< Read error (connection reset, ...).
    Interrupted, ///< read() hit EINTR; caller decides whether to resume
                 ///< (the daemon checks its stop flag here) — calling
                 ///< next() again simply continues.
  };

  /// \p WakeFd (optional): a second descriptor polled alongside \p Fd;
  /// when it becomes readable, next() returns Interrupted instead of
  /// blocking in read() — the daemon passes its shutdown self-pipe here
  /// so SIGTERM preempts a blocked stdin read without races.
  LineReader(int Fd, size_t MaxLineBytes, int WakeFd = -1)
      : Fd(Fd), MaxBytes(MaxLineBytes), WakeFd(WakeFd) {}

  /// Blocks until one of the Status cases resolves.
  Status next(std::string &Out);

private:
  int Fd;
  size_t MaxBytes;
  int WakeFd;
  std::string Buf;     ///< Bytes read but not yet consumed.
  size_t Scanned = 0;  ///< Prefix of Buf already searched for '\n'.
  bool Discarding = false;
  bool SawEof = false;
};

} // namespace typilus

#endif // TYPILUS_SUPPORT_SOCKET_H

//===- lsp/Transport.cpp - LSP base-protocol framing ---------------------------===//

#include "lsp/Transport.h"

#include "support/Socket.h"

#include <algorithm>
#include <cctype>

using namespace typilus;
using namespace typilus::lsp;

namespace {

/// Parses the header section (everything before the blank line) for
/// Content-Length. Header names are case-insensitive per the spec;
/// unknown headers (Content-Type, ...) are skipped. \returns false when
/// no parseable Content-Length is present — a framing violation the
/// reader cannot recover from.
bool parseContentLength(std::string_view Headers, size_t *Out) {
  while (!Headers.empty()) {
    size_t Eol = Headers.find('\n');
    std::string_view Line = Headers.substr(0, Eol);
    Headers = Eol == std::string_view::npos ? std::string_view()
                                            : Headers.substr(Eol + 1);
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    constexpr std::string_view Key = "content-length:";
    if (Line.size() <= Key.size())
      continue;
    bool Match = true;
    for (size_t I = 0; I != Key.size(); ++I)
      if (std::tolower(static_cast<unsigned char>(Line[I])) != Key[I]) {
        Match = false;
        break;
      }
    if (!Match)
      continue;
    Line.remove_prefix(Key.size());
    while (!Line.empty() && Line.front() == ' ')
      Line.remove_prefix(1);
    if (Line.empty())
      return false;
    size_t N = 0;
    for (char C : Line) {
      if (C < '0' || C > '9')
        return false;
      if (N > (SIZE_MAX - 9) / 10)
        return false;
      N = N * 10 + static_cast<size_t>(C - '0');
    }
    *Out = N;
    return true;
  }
  return false;
}

} // namespace

FrameReader::Status FrameReader::fill() {
  switch (readChunk(Fd, WakeFd, Buf)) {
  case ReadStatus::Data:
    return Status::Message; // bytes arrived: caller rescans
  case ReadStatus::Eof:
    SawEof = true;
    return Status::Eof;
  case ReadStatus::Interrupted:
    return Status::Interrupted;
  case ReadStatus::Error:
    break;
  }
  return Status::Error;
}

FrameReader::Status FrameReader::next(std::string &Out) {
  for (;;) {
    // Finish dropping an oversized body before anything else, so the
    // reader stays frame-aligned after reporting TooLarge.
    if (DiscardLeft != 0) {
      size_t Take = std::min(DiscardLeft, Buf.size());
      Buf.erase(0, Take);
      DiscardLeft -= Take;
      if (DiscardLeft == 0)
        return Status::TooLarge;
      if (SawEof)
        return Status::Eof;
      Status S = fill();
      if (S != Status::Message)
        return S;
      continue;
    }

    if (!HaveHeader) {
      // The spec mandates CRLF; a bare-LF separator is accepted too so
      // hand-rolled test clients (printf without \r) still frame.
      size_t Crlf = Buf.find("\r\n\r\n");
      size_t Lf = Buf.find("\n\n");
      size_t HdrEnd = std::min(Crlf, Lf);
      if (HdrEnd == std::string::npos) {
        if (Buf.size() > kMaxHeaderBytes)
          return Status::Error;
        if (SawEof)
          return Status::Eof; // partial trailing frame: dropped
        Status S = fill();
        if (S != Status::Message)
          return S;
        continue;
      }
      size_t SepLen = HdrEnd == Crlf ? 4 : 2;
      if (!parseContentLength(
              std::string_view(Buf).substr(0, HdrEnd + SepLen / 2), &BodyLen))
        return Status::Error;
      Buf.erase(0, HdrEnd + SepLen);
      if (BodyLen > MaxBytes) {
        DiscardLeft = BodyLen;
        continue;
      }
      HaveHeader = true;
    }

    if (Buf.size() >= BodyLen) {
      Out.assign(Buf, 0, BodyLen);
      Buf.erase(0, BodyLen);
      HaveHeader = false;
      return Status::Message;
    }
    if (SawEof)
      return Status::Eof;
    Status S = fill();
    if (S != Status::Message)
      return S;
  }
}

std::string typilus::lsp::frameMessage(std::string_view Body) {
  std::string Out = "Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n";
  Out.append(Body);
  return Out;
}

#include "serve/protocol.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace hdham::serve
{

namespace
{

/**
 * Write all of @p buf to @p fd, retrying on EINTR and short writes.
 * MSG_NOSIGNAL turns a peer hangup into an EPIPE error instead of a
 * process-killing SIGPIPE (a resident server must survive clients
 * vanishing mid-response). Falls back to write() for non-socket fds
 * (pipes in tests).
 */
void
writeAll(int fd, const std::uint8_t *buf, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("serve: write failed: ") +
                std::strerror(errno));
        }
        buf += static_cast<std::size_t>(n);
        len -= static_cast<std::size_t>(n);
    }
}

/**
 * Read exactly @p len bytes. Returns false on EOF at the first byte
 * when @p eofOk (clean connection close between frames); throws on
 * errors and mid-buffer EOF.
 */
bool
readAll(int fd, std::uint8_t *buf, std::size_t len, bool eofOk)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, buf + got, len - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("serve: read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0 && eofOk)
                return false;
            throw std::runtime_error(
                "serve: connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

std::uint32_t
decodeU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Read the frame body after the length prefix: returns the bytes
 * past the length word, validated against maxFrameBytes.
 */
bool
readBody(int fd, std::vector<std::uint8_t> &body,
         std::size_t minBytes)
{
    std::uint8_t lenBytes[4];
    if (!readAll(fd, lenBytes, sizeof(lenBytes), true))
        return false;
    const std::uint32_t len = decodeU32(lenBytes);
    if (len < minBytes || len > maxFrameBytes)
        throw std::runtime_error("serve: bad frame length " +
                                 std::to_string(len));
    // Grow the body as its bytes arrive: a peer that claims a large
    // length and sends little costs what it sent, not the claim.
    constexpr std::size_t kChunk = std::size_t(1) << 16;
    body.clear();
    while (body.size() < len) {
        const std::size_t at = body.size();
        body.resize(at + std::min<std::size_t>(len - at, kChunk));
        readAll(fd, body.data() + at, body.size() - at, false);
    }
    return true;
}

} // namespace

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

double
Reader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
readFrame(int fd, Frame &out)
{
    std::vector<std::uint8_t> body;
    if (!readBody(fd, body, 1))
        return false;
    out.type = body[0];
    out.payload.assign(body.begin() + 1, body.end());
    return true;
}

bool
readResponse(int fd, Response &out)
{
    std::vector<std::uint8_t> body;
    if (!readBody(fd, body, 2))
        return false;
    out.type = body[0];
    out.status = body[1];
    out.payload.assign(body.begin() + 2, body.end());
    return true;
}

void
writeRequest(int fd, MsgType type,
             const std::vector<std::uint8_t> &payload)
{
    if (payload.size() + 1 > maxFrameBytes)
        throw std::runtime_error("serve: request too large");
    std::vector<std::uint8_t> frame;
    frame.reserve(5 + payload.size());
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size() + 1);
    for (int i = 0; i < 4; ++i)
        frame.push_back(
            static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    frame.push_back(static_cast<std::uint8_t>(type));
    frame.insert(frame.end(), payload.begin(), payload.end());
    writeAll(fd, frame.data(), frame.size());
}

void
writeResponse(int fd, std::uint8_t type, std::uint8_t status,
              const std::vector<std::uint8_t> &payload)
{
    if (payload.size() + 2 > maxFrameBytes)
        throw std::runtime_error("serve: response too large");
    std::vector<std::uint8_t> frame;
    frame.reserve(6 + payload.size());
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size() + 2);
    for (int i = 0; i < 4; ++i)
        frame.push_back(
            static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    frame.push_back(type);
    frame.push_back(status);
    frame.insert(frame.end(), payload.begin(), payload.end());
    writeAll(fd, frame.data(), frame.size());
}

} // namespace hdham::serve

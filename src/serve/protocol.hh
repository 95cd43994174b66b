/**
 * @file
 * hdham.serve.v1: the length-prefixed binary protocol of the
 * resident query server.
 *
 * Framing (all integers little-endian):
 *
 *   request  := u32 length | u8 type | payload
 *   response := u32 length | u8 type | u8 status | payload
 *
 * where length counts everything after itself (type byte onward).
 * status 0 is success; any other status is an error whose payload is
 * a UTF-8 message. The response type echoes the request type. One
 * connection carries any number of request/response pairs in order;
 * there is no pipelining requirement, but the server answers frames
 * strictly in arrival order per connection.
 *
 * Request payloads:
 *
 *   Ping      ()                   -> u32 protocol, u64 sequence,
 *                                     u64 dim, u64 classes
 *   Classify  u32 n, n x str       -> u64 sequence, u32 n,
 *                                     n x {u64 class, u64 dist, str label}
 *   Search    u32 n, n x hv        -> same as Classify
 *   TopK      u32 k, u32 n, n x hv -> u64 sequence, u32 n,
 *                                     n x {u32 m, m x {u64 class, u64 dist}}
 *   Stats     ()                   -> hdham.metrics.v1 JSON bytes
 *   Trace     ()                   -> hdham.trace.v1 JSON bytes
 *   Update    u8 mode, u32 threshold, u32 n, n x {str label, str text}
 *                                  -> u32 applied, u64 pendingClasses
 *   Swap      ()                   -> u64 sequence, f64 buildUs,
 *                                     f64 swapUs
 *   Shutdown  ()                   -> ()
 *
 *   str := u32 length | bytes
 *   hv  := u32 words  | words x u64   (bit i = bit i%64 of word i/64)
 *
 * Update mode 0 accumulates each sample into the class whose label
 * matches (creating it if new); mode 1 assimilates: merge into the
 * nearest class within `threshold` bits, else create a new class
 * (reconsolidation semantics; see SnapshotBuilder::assimilate).
 * Neither is visible to queries until a Swap publishes a snapshot.
 *
 * The query responses lead with the snapshot sequence number that
 * served them: every result in one response was computed against
 * exactly that published snapshot, which is the coherence contract
 * the soak tests assert on.
 */

#ifndef HDHAM_SERVE_PROTOCOL_HH
#define HDHAM_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hdham::serve
{

/** Protocol version reported by Ping. */
inline constexpr std::uint32_t protocolVersion = 1;

/** Largest frame either side accepts (64 MiB). */
inline constexpr std::size_t maxFrameBytes = std::size_t(1) << 26;

/** Request/response type tags. */
enum class MsgType : std::uint8_t
{
    Ping = 0x01,
    Classify = 0x02,
    Search = 0x03,
    TopK = 0x04,
    Stats = 0x10,
    Trace = 0x11,
    Update = 0x20,
    Swap = 0x21,
    Shutdown = 0x7E,
};

/** Response status codes. */
enum Status : std::uint8_t
{
    kOk = 0,
    kError = 1,
};

/** Update request modes. */
enum UpdateMode : std::uint8_t
{
    kLabeled = 0,
    kAssimilate = 1,
};

/** One decoded request frame. */
struct Frame
{
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
};

/** One decoded response frame. */
struct Response
{
    std::uint8_t type = 0;
    std::uint8_t status = kError;
    std::vector<std::uint8_t> payload;
};

/** Little-endian payload builder. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }

    void f64(double v);

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void words(const std::uint64_t *w, std::size_t count)
    {
        u32(static_cast<std::uint32_t>(count));
        for (std::size_t i = 0; i < count; ++i)
            u64(w[i]);
    }

    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Little-endian payload parser; every getter throws
 * std::runtime_error on underflow, so a malformed frame can never
 * read past its own bytes.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : p(data), remaining(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &payload)
        : Reader(payload.data(), payload.size())
    {
    }

    std::size_t left() const { return remaining; }

    std::uint8_t u8()
    {
        need(1);
        const std::uint8_t v = p[0];
        advance(1);
        return v;
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        advance(4);
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        advance(8);
        return v;
    }

    double f64();

    std::string str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        advance(n);
        return s;
    }

    std::vector<std::uint64_t> words()
    {
        const std::uint32_t n = u32();
        // The count is untrusted: check that its bytes are present
        // before allocating for them.
        need(8 * static_cast<std::size_t>(n));
        std::vector<std::uint64_t> w(n);
        for (std::uint32_t i = 0; i < n; ++i)
            w[i] = u64();
        return w;
    }

  private:
    void need(std::size_t n) const
    {
        if (remaining < n)
            throw std::runtime_error(
                "serve: truncated payload (needed " +
                std::to_string(n) + " bytes, " +
                std::to_string(remaining) + " left)");
    }

    void advance(std::size_t n)
    {
        p += n;
        remaining -= n;
    }

    const std::uint8_t *p;
    std::size_t remaining;
};

/**
 * Read one request frame from @p fd. Returns false on clean EOF
 * before any frame byte; throws std::runtime_error on I/O errors,
 * truncation mid-frame or an oversized length.
 */
bool readFrame(int fd, Frame &out);

/** Read one response frame (same contract as readFrame). */
bool readResponse(int fd, Response &out);

/** Write one request frame. @throws std::runtime_error on error. */
void writeRequest(int fd, MsgType type,
                  const std::vector<std::uint8_t> &payload);

/** Write one response frame. @throws std::runtime_error on error. */
void writeResponse(int fd, std::uint8_t type, std::uint8_t status,
                   const std::vector<std::uint8_t> &payload);

} // namespace hdham::serve

#endif // HDHAM_SERVE_PROTOCOL_HH

/**
 * @file
 * Seeded protocol fuzz harness for the resident server.
 *
 * An in-process server on a unix socket receives about 2,000 hostile
 * hdham.serve.v1 frames, each derived from a per-frame seed so any
 * failure names the frame that caused it:
 *
 *  - valid Ping, Classify, Search, TopK and Stats frames with bit
 *    flips, truncated payloads under a correct outer length, inner
 *    string or word counts set near 2^32, or garbage appended;
 *  - unknown type bytes;
 *  - outer lengths of 0, past maxFrameBytes, or longer than what is
 *    sent before the client closes.
 *
 * A frame with a correct outer length must come back as a reply
 * (ok or error) on a connection that stays open; a frame that
 * breaks the framing may only cost its own connection. Afterwards
 * Ping still answers, a fixed Classify returns one match, and the
 * process's VmRSS has grown less than 64 MiB. Update, Swap and
 * Shutdown are left out: the builder grows without bound by design
 * until the server gets request limits.
 *
 * The suite is tier1, so it also runs under check-asan, check-tsan
 * and check-ubsan.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/random.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
using hdham::TextAlphabet;
using hdham::serve::Client;
using hdham::serve::MsgType;
using hdham::serve::Response;
using hdham::serve::Server;
using hdham::serve::ServerConfig;
using hdham::serve::Writer;

constexpr std::size_t kDim = 512;
constexpr std::size_t kClasses = 12;
constexpr std::uint64_t kMasterSeed = 0xF0220001ULL;
constexpr std::size_t kFrames = 2000;

/** This process's resident set (VmRSS) in KiB, or -1. */
long
vmRssKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

/** An in-process server over a small text model, torn down on exit. */
struct FuzzServer
{
    FuzzServer()
    {
        const std::string tag = std::to_string(::getpid());
        modelPath = ::testing::TempDir() + tag + "_fuzz_model.hdc";
        socketPath = "/tmp/hdham_fuzz_" + tag + ".sock";
        Rng rng(0x66757a7aULL);
        AssociativeMemory am(kDim);
        for (std::size_t i = 0; i < kClasses; ++i)
            am.store(Hypervector::random(kDim, rng),
                     "label" + std::to_string(i));
        const ItemMemory items(TextAlphabet::size, kDim, 0x6974ULL);
        hdham::modelfile::SaveOptions opts;
        opts.items = &items;
        hdham::modelfile::save(modelPath, am, opts);

        ServerConfig cfg;
        cfg.unixPath = socketPath;
        server.emplace(std::move(cfg));
        server->loadModel(modelPath);
        server->start();
    }

    ~FuzzServer()
    {
        server->stop();
        server.reset();
        std::remove(modelPath.c_str());
        std::remove(socketPath.c_str());
    }

    /** A raw stream socket connected to the server. */
    int connect() const
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("cannot connect to " +
                                     socketPath);
        return fd;
    }

    std::string modelPath;
    std::string socketPath;
    std::optional<Server> server;
};

/** Send all of @p bytes; false when the peer has gone. */
bool
sendAll(int fd, const std::vector<std::uint8_t> &bytes)
{
    std::size_t at = 0;
    while (at < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + at,
                                 bytes.size() - at, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        at += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Read one reply from @p fd: false when the server closed the
 * connection (cleanly or by reset) instead of answering.
 */
bool
replyArrives(int fd, Response &resp)
{
    try {
        return hdham::serve::readResponse(fd, resp);
    } catch (const std::exception &) {
        return false;
    }
}

/** A frame as sent: u32 outer length, then the body bytes. */
std::vector<std::uint8_t>
frameBytes(std::uint32_t outerLength,
           const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<std::uint8_t>((outerLength >> (8 * i)) & 0xFF));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

void
putU32(std::vector<std::uint8_t> &bytes, std::size_t at,
       std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

/** A random word-level hypervector payload entry (`hv`). */
void
writeQuery(Writer &w, Rng &rng)
{
    const Hypervector q = Hypervector::random(kDim, rng);
    w.words(q.data(), q.words());
}

/** Random printable text of 3 to 40 characters. */
std::string
randomText(Rng &rng)
{
    static const char alphabet[] = "abcdefghijklmnopqrstuvwxyz ";
    std::string text(3 + rng.nextBelow(38), ' ');
    for (char &c : text)
        c = alphabet[rng.nextBelow(sizeof(alphabet) - 1)];
    return text;
}

/** One valid request, and where its count fields sit. */
struct Request
{
    MsgType type;
    std::vector<std::uint8_t> payload;
    /** Offsets of u32 count fields worth setting near 2^32. */
    std::vector<std::size_t> counts;
};

Request
validRequest(Rng &rng)
{
    switch (rng.nextBelow(5)) {
    case 0:
        return {MsgType::Ping, {}, {}};
    case 1: {
        Writer w;
        const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                        rng.nextBelow(3));
        w.u32(n);
        for (std::uint32_t i = 0; i < n; ++i)
            w.str(randomText(rng));
        // The text count, then the first text's length.
        return {MsgType::Classify, w.take(), {0, 4}};
    }
    case 2: {
        Writer w;
        const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                        rng.nextBelow(3));
        w.u32(n);
        for (std::uint32_t i = 0; i < n; ++i)
            writeQuery(w, rng);
        // The query count, then the first query's word count.
        return {MsgType::Search, w.take(), {0, 4}};
    }
    case 3: {
        Writer w;
        w.u32(static_cast<std::uint32_t>(rng.nextBelow(20)));
        const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                        rng.nextBelow(2));
        w.u32(n);
        for (std::uint32_t i = 0; i < n; ++i)
            writeQuery(w, rng);
        // k, the query count, then the first query's word count.
        return {MsgType::TopK, w.take(), {0, 4, 8}};
    }
    default:
        return {MsgType::Stats, {}, {}};
    }
}

/** A type byte the server does not know. */
std::uint8_t
unknownType(Rng &rng)
{
    for (;;) {
        const auto t = static_cast<std::uint8_t>(rng.nextBelow(256));
        switch (static_cast<MsgType>(t)) {
        case MsgType::Ping:
        case MsgType::Classify:
        case MsgType::Search:
        case MsgType::TopK:
        case MsgType::Stats:
        case MsgType::Trace:
        case MsgType::Update:
        case MsgType::Swap:
        case MsgType::Shutdown:
            continue;
        }
        return t;
    }
}

/**
 * The body (type byte plus payload) of an in-protocol hostile frame
 * derived from @p rng: its outer length will be exact.
 */
std::vector<std::uint8_t>
mutatedBody(Rng &rng)
{
    Request req = validRequest(rng);
    std::vector<std::uint8_t> payload = req.payload;
    switch (rng.nextBelow(5)) {
    case 0: // bit flips
        if (!payload.empty()) {
            const std::uint64_t flips = 1 + rng.nextBelow(8);
            for (std::uint64_t i = 0; i < flips; ++i)
                payload[rng.nextBelow(payload.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        }
        break;
    case 1: // truncated payload
        if (!payload.empty())
            payload.resize(rng.nextBelow(payload.size()));
        break;
    case 2: // a count near 2^32
        if (!req.counts.empty()) {
            const std::size_t at =
                req.counts[rng.nextBelow(req.counts.size())];
            putU32(payload, at,
                   0xFFFFFFFFu -
                       static_cast<std::uint32_t>(rng.nextBelow(16)));
        }
        break;
    case 3: // garbage appended
        for (std::uint64_t i = 0, n = 1 + rng.nextBelow(64); i < n;
             ++i)
            payload.push_back(
                static_cast<std::uint8_t>(rng.nextBelow(256)));
        break;
    default: // unknown type byte
        payload.insert(payload.begin(), unknownType(rng));
        return payload;
    }
    payload.insert(payload.begin(), static_cast<std::uint8_t>(req.type));
    return payload;
}

/**
 * Send one frame that breaks the framing on a fresh connection: an
 * outer length of 0, one past maxFrameBytes, or one longer than what
 * is sent before the close.
 */
void
sendBrokenFrame(const FuzzServer &fx, Rng &rng)
{
    const int fd = fx.connect();
    std::vector<std::uint8_t> body = mutatedBody(rng);
    std::uint32_t length = 0;
    switch (rng.nextBelow(3)) {
    case 0:
        body.clear();
        break;
    case 1:
        length = static_cast<std::uint32_t>(
            hdham::serve::maxFrameBytes + 1 + rng.nextBelow(1u << 20));
        break;
    default:
        length = static_cast<std::uint32_t>(
            body.size() + 1 +
            rng.nextBelow(hdham::serve::maxFrameBytes - body.size()));
        break;
    }
    sendAll(fd, frameBytes(length, body));
    ::shutdown(fd, SHUT_WR);
    // The server drops the connection; nothing must come back.
    Response resp;
    EXPECT_FALSE(replyArrives(fd, resp));
    ::close(fd);
}

TEST(ProtocolFuzzTest, HostileFramesLeaveTheServerServing)
{
    FuzzServer fx;
    int fd = fx.connect();
    {
        // Warm up the reply paths before the baseline reading.
        Client client = Client::connectUnix(fx.socketPath);
        client.ping();
        client.classify({"the quick brown fox jumps over the lazy dog"});
    }
    const long rssBefore = vmRssKib();
    ASSERT_GT(rssBefore, 0);

    for (std::size_t i = 0; i < kFrames; ++i) {
        const std::uint64_t seed = kMasterSeed + i;
        Rng rng(seed);
        if (rng.nextBelow(8) == 0) {
            sendBrokenFrame(fx, rng);
            continue;
        }
        const std::vector<std::uint8_t> body = mutatedBody(rng);
        ASSERT_TRUE(sendAll(
            fd, frameBytes(static_cast<std::uint32_t>(body.size()),
                           body)))
            << "frame " << i << " seed " << seed;
        Response resp;
        ASSERT_TRUE(replyArrives(fd, resp))
            << "no reply to frame " << i << " seed " << seed;
        EXPECT_EQ(resp.type, body[0])
            << "frame " << i << " seed " << seed;
    }
    ::close(fd);

    Client client = Client::connectUnix(fx.socketPath);
    EXPECT_EQ(client.ping().classes, kClasses);
    const auto reply =
        client.classify({"the quick brown fox jumps over the lazy dog"});
    EXPECT_EQ(reply.results.size(), 1u);
    EXPECT_LT(vmRssKib() - rssBefore, 64 * 1024);
}

} // namespace

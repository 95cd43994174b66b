/**
 * @file
 * Functional suite for the resident server and hdham.serve.v1.
 *
 * Runs a Server in-process on a unix-domain (and once a loopback
 * TCP) socket, drives it with serve::Client, and checks every
 * request type against answers computed locally from the same model
 * file: search/top-k results are bit-identical to the direct engine,
 * classify matches a local encode with the CLI's tie-break seed,
 * update->swap publishes a grown snapshot that subsequent queries
 * observe, and error paths come back as error responses, not closed
 * connections. A scripted raw-socket session pins every reply byte.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/random.hh"
#include "lang/pipeline.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Encoder;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
using hdham::TextAlphabet;
using hdham::serve::Client;
using hdham::serve::MsgType;
using hdham::serve::PingReply;
using hdham::serve::QueryReply;
using hdham::serve::Response;
using hdham::serve::Server;
using hdham::serve::ServerConfig;
using hdham::serve::SwapReply;
using hdham::serve::TopKReply;
using hdham::serve::UpdateReply;
using hdham::serve::Writer;

constexpr std::size_t kDim = 512;
constexpr std::size_t kClasses = 12;
constexpr std::uint64_t kItemSeed = 0x6974656dULL;

AssociativeMemory
fixtureMemory()
{
    Rng rng(0x73727631ULL);
    AssociativeMemory am(kDim);
    for (std::size_t i = 0; i < kClasses; ++i)
        am.store(Hypervector::random(kDim, rng),
                 "label" + std::to_string(i));
    return am;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + std::to_string(::getpid()) + "_" +
           name;
}

/**
 * Write the fixture model to a temp file, with the item memory text
 * requests encode with unless @p withItems is false.
 */
std::string
writeFixtureModel(const std::string &name, bool withItems = true)
{
    const std::string path = tempPath(name);
    const AssociativeMemory am = fixtureMemory();
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    hdham::modelfile::SaveOptions opts;
    if (withItems)
        opts.items = &items;
    hdham::modelfile::save(path, am, opts);
    return path;
}

std::vector<Hypervector>
fixtureQueries(std::size_t count)
{
    Rng rng(0x71737276ULL);
    std::vector<Hypervector> queries;
    for (std::size_t q = 0; q < count; ++q)
        queries.push_back(Hypervector::random(kDim, rng));
    return queries;
}

/** An in-process server on a fresh unix socket, torn down on exit. */
struct ServerFixture
{
    explicit ServerFixture(ServerConfig cfg = {},
                           const std::string &tag = "s",
                           bool withItems = true)
        : modelPath(writeFixtureModel("server_test_" + tag + ".hdc",
                                      withItems))
    {
        // Keep the path short: sockaddr_un caps sun_path around 108
        // characters and TempDir can be long in some environments.
        socketPath = "/tmp/hdham_" + tag + "_" +
                     std::to_string(::getpid()) + ".sock";
        cfg.unixPath = socketPath;
        server.emplace(std::move(cfg));
        server->loadModel(modelPath);
        server->start();
    }

    ~ServerFixture()
    {
        server->stop();
        server.reset();
        std::remove(modelPath.c_str());
        std::remove(socketPath.c_str());
    }

    Client connect() { return Client::connectUnix(socketPath); }

    std::string modelPath;
    std::string socketPath;
    std::optional<Server> server;
};

TEST(ServerTest, PingReportsProtocolAndModelShape)
{
    ServerFixture fx({}, "ping");
    Client client = fx.connect();
    const PingReply reply = client.ping();
    EXPECT_EQ(reply.protocol, hdham::serve::protocolVersion);
    EXPECT_EQ(reply.sequence, 1u);
    EXPECT_EQ(reply.dim, kDim);
    EXPECT_EQ(reply.classes, kClasses);
}

TEST(ServerTest, SearchMatchesDirectEngineBitForBit)
{
    ServerFixture fx({}, "search");
    Client client = fx.connect();
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(9);

    const QueryReply reply = client.search(queries);
    EXPECT_EQ(reply.sequence, 1u);
    ASSERT_EQ(reply.results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto want = local.search(queries[i]);
        EXPECT_EQ(reply.results[i].classId, want.classId);
        EXPECT_EQ(reply.results[i].distance, want.bestDistance);
        EXPECT_EQ(reply.results[i].label,
                  local.labelOf(want.classId));
    }
}

TEST(ServerTest, TopKMatchesDirectEngine)
{
    ServerFixture fx({}, "topk");
    Client client = fx.connect();
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(5);

    const TopKReply reply = client.topK(4, queries);
    EXPECT_EQ(reply.sequence, 1u);
    ASSERT_EQ(reply.results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto want = local.searchTopK(queries[i], 4);
        ASSERT_EQ(reply.results[i].size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
            EXPECT_EQ(reply.results[i][j].classId,
                      want[j].classId);
            EXPECT_EQ(reply.results[i][j].distance,
                      want[j].distance);
        }
    }
}

TEST(ServerTest, ClassifyMatchesLocalEncodeWithCliSeed)
{
    ServerFixture fx({}, "classify");
    Client client = fx.connect();
    const std::vector<std::string> texts = {
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
    };

    const QueryReply reply = client.classify(texts);
    ASSERT_EQ(reply.results.size(), texts.size());

    // Replicate the server's (and `hdham classify`'s) encode: the
    // model-embedded item memory, trigrams, and the CLI tie-break
    // seed -- served classification is CLI classification.
    const AssociativeMemory local = fixtureMemory();
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    const hdham::lang::PipelineConfig defaults;
    const Encoder encoder(items, defaults.ngram);
    Rng rng(defaults.seed ^ 0x636c6966ULL);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const auto want =
            local.search(encoder.encode(texts[i], rng));
        EXPECT_EQ(reply.results[i].classId, want.classId);
        EXPECT_EQ(reply.results[i].distance, want.bestDistance);
    }
}

TEST(ServerTest, UpdateThenSwapPublishesGrownSnapshot)
{
    ServerFixture fx({}, "update");
    Client client = fx.connect();

    const UpdateReply staged = client.update(
        hdham::serve::kLabeled,
        {{"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"},
         {"newlang", "aaab bbbc cccd ddde eeef fffg gggh"}});
    EXPECT_EQ(staged.applied, 2u);
    EXPECT_EQ(staged.pendingClasses, kClasses + 1);

    // Not visible until the swap.
    EXPECT_EQ(client.ping().classes, kClasses);

    const SwapReply swapped = client.swap();
    EXPECT_EQ(swapped.sequence, 2u);
    EXPECT_GE(swapped.buildUs, 0.0);
    EXPECT_GE(swapped.swapUs, 0.0);

    const PingReply after = client.ping();
    EXPECT_EQ(after.sequence, 2u);
    EXPECT_EQ(after.classes, kClasses + 1);

    // The new class is servable: its own training text classifies
    // into it.
    const QueryReply reply = client.classify(
        {"aaaa bbbb cccc dddd eeee ffff gggg"});
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.results[0].label, "newlang");
    EXPECT_EQ(reply.sequence, 2u);
}

TEST(ServerTest, AssimilateMergesIntoNearestClass)
{
    ServerFixture fx({}, "assim");
    Client client = fx.connect();
    // An impossible-to-meet threshold forces a new class...
    const UpdateReply created = client.update(
        hdham::serve::kAssimilate,
        {{"novel", "zzzz yyyy xxxx wwww vvvv uuuu tttt"}}, 0);
    EXPECT_EQ(created.pendingClasses, kClasses + 1);
    // ...and a full-width threshold merges the next sample into an
    // existing class instead of creating another.
    const UpdateReply merged = client.update(
        hdham::serve::kAssimilate,
        {{"ignored", "zzzz yyyy xxxx wwww vvvv uuuu tttt"}},
        static_cast<std::uint32_t>(kDim));
    EXPECT_EQ(merged.pendingClasses, kClasses + 1);
}

TEST(ServerTest, ErrorsComeBackAsResponsesNotDisconnects)
{
    ServerFixture fx({}, "errors");
    Client client = fx.connect();

    // Wrong query width: an error response naming both widths.
    Rng rng(5);
    try {
        client.search({Hypervector::random(kDim / 2, rng)});
        FAIL() << "short query must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("words"),
                  std::string::npos);
    }

    // Text shorter than the n-gram size.
    EXPECT_THROW(client.classify({"ab"}), std::runtime_error);

    // The connection survives both errors.
    EXPECT_EQ(client.ping().classes, kClasses);
}

TEST(ServerTest, StatsReportsServingGauges)
{
    ServerFixture fx({}, "stats");
    Client client = fx.connect();
    client.search(fixtureQueries(3));
    const std::string json = client.stats();
    EXPECT_NE(json.find("hdham.metrics.v1"), std::string::npos);
    EXPECT_NE(json.find("snapshot.sequence"), std::string::npos);
    EXPECT_NE(json.find("snapshot.swaps"), std::string::npos);
    EXPECT_NE(json.find("serve.queries"), std::string::npos);
    EXPECT_NE(json.find("model.resident_bytes"),
              std::string::npos);
    EXPECT_NE(json.find("hdham.model.v1"), std::string::npos);
}

TEST(ServerTest, TraceGatedByConfig)
{
    {
        ServerFixture fx({}, "notrace");
        Client client = fx.connect();
        EXPECT_THROW(client.traceJson(), std::runtime_error);
    }
    {
        ServerConfig cfg;
        cfg.trace = true;
        ServerFixture fx(cfg, "trace");
        Client client = fx.connect();
        client.search(fixtureQueries(2));
        const std::string json = client.traceJson();
        EXPECT_NE(json.find("traceEvents"), std::string::npos);
    }
}

TEST(ServerTest, ShutdownRequestStopsTheServer)
{
    ServerFixture fx({}, "shutdown");
    Client client = fx.connect();
    client.shutdownServer();
    fx.server->wait(); // returns because the request set stopping
    EXPECT_THROW(fx.connect(), std::runtime_error);
}

TEST(ServerTest, TcpLoopbackServesTheSameProtocol)
{
    const std::string model = writeFixtureModel("server_tcp.hdc");
    ServerConfig cfg; // no unixPath: loopback TCP on a free port
    Server server(std::move(cfg));
    server.loadModel(model);
    server.start();
    ASSERT_NE(server.port(), 0);

    Client client = Client::connectTcp(server.port());
    EXPECT_EQ(client.ping().classes, kClasses);
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(4);
    const QueryReply reply = client.search(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(reply.results[i].classId,
                  local.search(queries[i]).classId);

    server.stop();
    std::remove(model.c_str());
}

TEST(ServerTest, ConcurrentClientsDuringSwapsSeeCoherentAnswers)
{
    ServerFixture fx({}, "soak");
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(6);
    // Generation 1 expectations; later generations only add classes,
    // so generation-1 winners stay valid unless the new class wins.
    // To keep the check exact we assert on the response's sequence
    // number instead: every response must be internally coherent and
    // sequence-stamped, and generation-1 responses must match the
    // local engine bit for bit.
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> failures{0};
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            Client client = fx.connect();
            for (int round = 0; round < 50; ++round) {
                const QueryReply reply = client.search(queries);
                if (reply.results.size() != queries.size())
                    ++failures;
                if (reply.sequence == 1) {
                    for (std::size_t i = 0; i < queries.size();
                         ++i) {
                        const auto want = local.search(queries[i]);
                        if (reply.results[i].classId !=
                                want.classId ||
                            reply.results[i].distance !=
                                want.bestDistance)
                            ++failures;
                    }
                }
            }
        });
    }
    Client updater = fx.connect();
    for (int swapRound = 0; swapRound < 3; ++swapRound) {
        updater.update(hdham::serve::kLabeled,
                       {{"extra" + std::to_string(swapRound),
                         "mmmm nnnn oooo pppp qqqq rrrr ssss"}});
        updater.swap();
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(updater.ping().sequence, 4u);
}

/** A raw stream socket connected to the unix socket at @p path. */
int
rawConnect(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throw std::runtime_error("cannot connect to " + path);
    return fd;
}

std::vector<std::uint8_t>
textsPayload(const std::vector<std::string> &texts)
{
    Writer w;
    w.u32(static_cast<std::uint32_t>(texts.size()));
    for (const std::string &text : texts)
        w.str(text);
    return w.take();
}

/** `u32 n, n x hv` over the first @p count fixture queries. */
void
writeQueries(Writer &w, std::size_t count)
{
    w.u32(static_cast<std::uint32_t>(count));
    for (const Hypervector &q : fixtureQueries(count))
        w.words(q.data(), q.words());
}

std::vector<std::uint8_t>
updatePayload(std::uint8_t mode, std::uint32_t threshold,
              const std::vector<std::pair<std::string, std::string>>
                  &samples)
{
    Writer w;
    w.u8(mode);
    w.u32(threshold);
    w.u32(static_cast<std::uint32_t>(samples.size()));
    for (const auto &[label, text] : samples) {
        w.str(label);
        w.str(text);
    }
    return w.take();
}

/**
 * Play the pinned session against a fresh server: every verb that
 * reads or changes the served model, with a Swap in the middle so
 * the later replies pin the builder's product as well as the loaded
 * model. Returns an FNV-1a digest of each reply's type, status and
 * payload bytes.
 */
std::vector<std::uint64_t>
playTranscript(ServerConfig cfg, const std::string &tag)
{
    ServerFixture fx(std::move(cfg), tag);
    const int fd = rawConnect(fx.socketPath);
    std::vector<std::uint64_t> digests;
    const auto send = [&](MsgType type,
                          const std::vector<std::uint8_t> &payload) {
        hdham::serve::writeRequest(fd, type, payload);
        Response resp;
        ASSERT_TRUE(hdham::serve::readResponse(fd, resp));
        EXPECT_EQ(resp.status, hdham::serve::kOk)
            << std::string(resp.payload.begin(), resp.payload.end());
        // Swap's reply ends in two timing doubles (buildUs, swapUs);
        // only its leading sequence number is deterministic.
        if (type == MsgType::Swap)
            resp.payload.resize(sizeof(std::uint64_t));
        resp.payload.insert(resp.payload.begin(),
                            {resp.type, resp.status});
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const std::uint8_t byte : resp.payload)
            h = (h ^ byte) * 0x100000001b3ULL;
        digests.push_back(h);
    };

    const std::vector<std::string> texts = {
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "aaaa bbbb cccc dddd eeee ffff gggg",
    };
    send(MsgType::Ping, {});
    send(MsgType::Classify, textsPayload(texts));
    Writer search;
    writeQueries(search, 4);
    send(MsgType::Search, search.take());
    Writer topK;
    topK.u32(3); // k
    writeQueries(topK, 3);
    send(MsgType::TopK, topK.take());
    send(MsgType::Update,
         updatePayload(
             hdham::serve::kLabeled, 0,
             {{"label3", "the quick brown fox jumps over the lazy dog"},
              {"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"}}));
    send(MsgType::Update,
         updatePayload(
             hdham::serve::kAssimilate, kDim / 4,
             {{"merged", "aaaa bbbb cccc dddd eeee ffff gggg"},
              {"fresh", "zzzz yyyy xxxx wwww vvvv uuuu tttt"}}));
    send(MsgType::Swap, {});
    send(MsgType::Classify, textsPayload(texts));
    send(MsgType::Ping, {});
    ::close(fd);
    return digests;
}

/**
 * Reply digests of the scripted session. Any change to an answer, a
 * label, a sequence number or the reply encoding moves one of them.
 */
const std::vector<std::uint64_t> kPinnedTranscript = {
    0x053df83c42795706ULL, // Ping
    0xbb3c1efc062150baULL, // Classify
    0xad4f60da4c9aa2bfULL, // Search
    0x1eff53b8de6bb79eULL, // TopK
    0xb78e24a50baefd72ULL, // Update, labeled
    0x98935d9c00bfb351ULL, // Update, assimilate
    0x7a7f546a49811866ULL, // Swap (sequence only)
    0x368b8d8f5fa915d6ULL, // Classify after the swap
    0xbf5449b9391b5963ULL, // Ping after the swap
};

TEST(ServerTranscriptTest, DefaultConfigRepliesArePinned)
{
    EXPECT_EQ(playTranscript({}, "pin_row"), kPinnedTranscript);
}

TEST(ServerTest, HugeWordCountIsRejectedBeforeAllocating)
{
    const auto peakRssKib = [] {
        rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        return usage.ru_maxrss;
    };
    ServerFixture fx({}, "huge");
    const int fd = rawConnect(fx.socketPath);
    // One Search query that claims 2^28 words (2 GiB) and sends none.
    Writer w;
    w.u32(1);
    w.u32(std::uint32_t(1) << 28);
    const long before = peakRssKib();
    hdham::serve::writeRequest(fd, MsgType::Search, w.take());
    Response resp;
    ASSERT_TRUE(hdham::serve::readResponse(fd, resp));
    EXPECT_LT(peakRssKib() - before, 64 * 1024);
    EXPECT_EQ(resp.status, hdham::serve::kError);
    EXPECT_NE(std::string(resp.payload.begin(), resp.payload.end())
                  .find("truncated payload"),
              std::string::npos);

    // The connection stays usable.
    hdham::serve::writeRequest(fd, MsgType::Ping, {});
    ASSERT_TRUE(hdham::serve::readResponse(fd, resp));
    EXPECT_EQ(resp.status, hdham::serve::kOk);
    ::close(fd);
}

/** This process's virtual size (VmSize) in KiB, or -1. */
long
vmSizeKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0)
            return std::stol(line.substr(7));
    }
    return -1;
}

TEST(ServerTest, ConnectionChurnReleasesThreadStacks)
{
    // Every connection gets a thread with its own stack (8 MiB by
    // default). Closed connections must give both back while the
    // server runs, not at stop(): 2,000 connections would otherwise
    // map ~16 GiB. The warm-up lets the thread stack cache reach its
    // steady size first.
    ServerFixture fx({}, "churn");
    // One ping per connection. Waiting for the server to close its end
    // keeps one serving thread alive at a time, so malloc does not add
    // an arena per overlapping thread.
    const auto pingOnce = [&fx] {
        const int fd = rawConnect(fx.socketPath);
        hdham::serve::writeRequest(fd, MsgType::Ping, {});
        Response resp;
        EXPECT_TRUE(hdham::serve::readResponse(fd, resp));
        ::shutdown(fd, SHUT_WR);
        char byte;
        while (::read(fd, &byte, 1) > 0) {
        }
        ::close(fd);
    };
    for (int i = 0; i < 500; ++i)
        pingOnce();
    const long before = vmSizeKib();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 2000; ++i)
        pingOnce();
    EXPECT_LT(vmSizeKib() - before, 512 * 1024);

    Client client = fx.connect();
    const QueryReply reply =
        client.classify({"the quick brown fox jumps over the lazy dog"});
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.sequence, 1u);
}

/**
 * Write the fixture classes in the retired stream layout: "HDHAM"
 * plus three NULs, u64 version 1, u64 dim, u64 count, then per class
 * a u64-length-prefixed label and a u64 dim followed by the row
 * words.
 */
std::string
writeStreamLayoutModel(const std::string &name)
{
    const AssociativeMemory am = fixtureMemory();
    std::string bytes("HDHAM\0\0\0", 8);
    const auto u64 = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    };
    u64(1);
    u64(am.dim());
    u64(am.size());
    for (std::size_t c = 0; c < am.size(); ++c) {
        u64(am.labelOf(c).size());
        bytes += am.labelOf(c);
        const Hypervector row = am.vectorOf(c);
        u64(row.dim());
        for (std::size_t w = 0; w < row.words(); ++w)
            u64(row.word(w));
    }
    const std::string path = tempPath(name);
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
}

/** Expect @p request to throw a std::runtime_error naming @p what. */
template <typename Request>
void
expectErrorNaming(Request request, const std::string &what)
{
    try {
        request();
        ADD_FAILURE() << "no error naming \"" << what << "\"";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(ServerTest, StreamLayoutModelIsRejectedAsBadMagic)
{
    const std::string path = writeStreamLayoutModel("server_stream.bin");
    expectErrorNaming(
        [&] { hdham::modelload::LoadedModel::open(path); },
        "bad magic");

    Server server(ServerConfig{});
    expectErrorNaming([&] { server.loadModel(path); }, "bad magic");
    EXPECT_FALSE(server.snapshots().hasSnapshot());
    EXPECT_THROW(server.start(), std::logic_error);
    std::remove(path.c_str());
}

TEST(ServerTest, ItemlessModelServesVectorsAndRefusesText)
{
    ServerFixture fx({}, "noitems", false);
    Client client = fx.connect();
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(3);

    const QueryReply nearest = client.search(queries);
    const TopKReply ranked = client.topK(3, queries);
    ASSERT_EQ(nearest.results.size(), queries.size());
    ASSERT_EQ(ranked.results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto want = local.search(queries[i]);
        EXPECT_EQ(nearest.results[i].classId, want.classId);
        ASSERT_EQ(ranked.results[i].size(), 3u);
        EXPECT_EQ(ranked.results[i][0].classId, want.classId);
    }

    // Text verbs need the item memory the model does not embed: an
    // error reply naming it, and the connection stays usable.
    const std::string text =
        "the quick brown fox jumps over the lazy dog";
    expectErrorNaming([&] { client.classify({text}); },
                      "item memory");
    expectErrorNaming(
        [&] { client.update(hdham::serve::kLabeled, {{"x", text}}); },
        "item memory");
    const PingReply ping = client.ping();
    EXPECT_EQ(ping.classes, kClasses);
    EXPECT_EQ(ping.sequence, 1u);
}

} // namespace

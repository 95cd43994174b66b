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
 * connections.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
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
using hdham::serve::PingReply;
using hdham::serve::QueryReply;
using hdham::serve::Server;
using hdham::serve::ServerConfig;
using hdham::serve::SwapReply;
using hdham::serve::TopKReply;
using hdham::serve::UpdateReply;

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

/** Write the fixture model (with an item memory) to a temp file. */
std::string
writeFixtureModel(const std::string &name)
{
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "_" + name;
    const AssociativeMemory am = fixtureMemory();
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    hdham::modelfile::SaveOptions opts;
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
                           const std::string &tag = "s")
        : modelPath(writeFixtureModel("server_test_" + tag +
                                      ".hdc"))
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

} // namespace

/**
 * @file
 * The resident hdham query server.
 *
 * A Server owns the serving triangle the snapshot refactor exists
 * for: one SnapshotSource readers pin published models from, one
 * SnapshotBuilder the update path mutates out-of-line, and one thread
 * per accepted connection speaking the hdham.serve.v1 protocol
 * (serve/protocol.hh) over a unix-domain or loopback TCP socket.
 *
 * Per request, a connection pins the current snapshot once, serves
 * every query in the request from that pin on its own thread
 * through the existing engine paths (AssociativeMemory::searchBatch
 * -- kernel dispatch, metrics, tracing all compose
 * unchanged), and leads its response with the pinned
 * sequence number. Update requests feed the builder; a Swap request
 * publishes -- readers mid-request keep their pinned snapshot to
 * the end of the request.
 *
 * The server is embeddable: tests construct one in-process, start()
 * it on a temp socket, drive it with serve::Client, and stop() it --
 * no fork, no exec, TSan-visible end to end.
 */

#ifndef HDHAM_SERVE_SERVER_HH
#define HDHAM_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hh"
#include "core/packed_rows.hh"
#include "core/snapshot.hh"
#include "core/trace.hh"
#include "serve/protocol.hh"

namespace hdham::serve
{

/** Listener and serving configuration. */
struct ServerConfig
{
    /** Unix-domain socket path (preferred when non-empty). */
    std::string unixPath;
    /**
     * Loopback TCP port, used when unixPath is empty (0 = pick a
     * free port; read it back with Server::port()).
     */
    std::uint16_t tcpPort = 0;
    /** Verify model checksums on load. */
    bool verifyChecksums = true;
    /** Collect trace spans and answer Trace requests. */
    bool trace = false;
};

/**
 * Resident query server over one model. Lifecycle:
 * loadModel() -> start() -> [wait()] -> stop().
 */
class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Open @p path via the shared model-open helper
     * (core/model_loader.hh), seed the update builder from it, and
     * publish it as snapshot 1. Call once, before start().
     * @throws std::runtime_error on malformed input; nothing is
     * published then.
     */
    void loadModel(const std::string &path);

    /**
     * Bind the listener and start accepting connections (one serving
     * thread per connection). @throws std::runtime_error when the
     * socket cannot be bound.
     */
    void start();

    /** Block until a Shutdown request or stop() arrives. */
    void wait();

    /** Stop accepting, close connections, join every thread. */
    void stop();

    /** Resolved TCP port (after start(); 0 for unix sockets). */
    std::uint16_t port() const { return resolvedPort; }

    /** The snapshot source queries pin from (tests publish here). */
    snapshot::SnapshotSource &snapshots() { return source; }

    /** The stats document a Stats request returns, as JSON. */
    std::string statsJson();

  private:
    /**
     * One accepted connection. Its thread closes the socket and sets
     * done under connMu; the acceptor then erases the entry.
     */
    struct Connection
    {
        int fd = -1;
        bool done = false;
        /** Declared last: destroying the entry joins the thread
         *  before the members it uses go. */
        std::jthread thread;
    };

    void acceptLoop();
    void serveConnection(Connection &conn);
    void handleRequest(int fd, const Frame &frame);

    std::vector<std::uint8_t> doPing();
    std::vector<std::uint8_t> doClassify(Reader &req);
    std::vector<std::uint8_t> doSearch(Reader &req);
    std::vector<std::uint8_t> doTopK(Reader &req);
    std::vector<std::uint8_t> doUpdate(Reader &req);
    std::vector<std::uint8_t> doSwap();
    std::vector<std::uint8_t> doStats();
    std::vector<std::uint8_t> doTrace();

    /** Pin the current snapshot or throw ("no model loaded"). */
    snapshot::SnapshotRef pinOrThrow() const;

    ServerConfig cfg;

    snapshot::SnapshotSource source;
    std::unique_ptr<snapshot::SnapshotBuilder> updateBuilder;

    /** Sink frozen into every published snapshot. */
    metrics::QueryMetrics queryMetrics;
    /** Persistent stats registry (provenance set at load). */
    metrics::Registry registry;
    std::mutex registryMu;

    /** Span collector for Trace requests (active when cfg.trace). */
    trace::Tracer tracer;

    int listenFd = -1;
    std::uint16_t resolvedPort = 0;
    std::thread acceptThread;

    std::mutex connMu;
    /** A list, so a thread's entry keeps its address while others
     *  come and go. */
    std::list<Connection> conns;

    std::mutex stateMu;
    std::condition_variable stateCv;
    bool stopping = false;
    bool started = false;
};

} // namespace hdham::serve

#endif // HDHAM_SERVE_SERVER_HH

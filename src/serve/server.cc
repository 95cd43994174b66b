#include "serve/server.hh"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/distance.hh"
#include "core/encoder.hh"
#include "core/model_loader.hh"
#include "lang/pipeline.hh"

namespace hdham::serve
{

namespace
{

/** Encode-tie-break seed of the classify path (same as the CLI, so
 *  a served classification matches `hdham classify` bit for bit). */
std::uint64_t
classifySeed()
{
    return lang::PipelineConfig{}.seed ^ 0x636c6966ULL;
}

/** Encode-tie-break seed of the update path. */
std::uint64_t
updateSeed()
{
    return lang::PipelineConfig{}.seed ^ 0x75706474ULL;
}

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** Parse `u32 n, n x hv`, checking each query's word count. */
std::vector<Hypervector>
readQueries(Reader &req, std::size_t dim)
{
    const std::uint32_t count = req.u32();
    const std::size_t need =
        (dim + Hypervector::bitsPerWord - 1) /
        Hypervector::bitsPerWord;
    std::vector<Hypervector> queries;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::vector<std::uint64_t> w = req.words();
        if (w.size() != need)
            throw std::runtime_error(
                "serve: query has " + std::to_string(w.size()) +
                " words, model dimension " + std::to_string(dim) +
                " needs " + std::to_string(need));
        queries.push_back(Hypervector::fromWords(dim, w.data()));
    }
    return queries;
}

/** The Classify/Search reply: @p queries' nearest classes on @p snap. */
std::vector<std::uint8_t>
nearestReply(const snapshot::MemorySnapshot &snap,
             const std::vector<Hypervector> &queries,
             std::size_t threads)
{
    const AssociativeMemory &memory = snap.memory();
    Writer out;
    out.u64(snap.sequence());
    out.u32(static_cast<std::uint32_t>(queries.size()));
    if (!queries.empty()) {
        for (const SearchResult &r :
             memory.searchBatch(queries, threads)) {
            out.u64(r.classId);
            out.u64(r.bestDistance);
            out.str(memory.labelOf(r.classId));
        }
    }
    return out.take();
}

/** The item memory text requests encode with on @p snap. */
const ItemMemory &
itemsOf(const snapshot::MemorySnapshot &snap)
{
    if (!snap.hasItemMemory())
        throw std::runtime_error(
            "serve: model embeds no item memory, which text "
            "requests need to encode");
    return snap.itemMemory();
}

} // namespace

Server::Server(ServerConfig config) : cfg(std::move(config))
{
    registry.attachQuery("serve", queryMetrics);
    if (cfg.trace) {
        tracer.setCapturePerf(false);
        trace::setActive(&tracer);
    }
}

Server::~Server()
{
    stop();
    if (cfg.trace)
        trace::setActive(nullptr);
}

void
Server::loadModel(const std::string &path)
{
    modelfile::ModelView::Options vopts;
    vopts.verifyChecksums = cfg.verifyChecksums;
    modelload::LoadedModel model =
        modelload::LoadedModel::open(path, vopts);
    {
        std::lock_guard<std::mutex> lock(registryMu);
        model.recordInfo(registry);
    }

    snapshot::MemorySnapshot::Options sopts;
    sopts.sink = &queryMetrics;
    std::unique_ptr<snapshot::MemorySnapshot> snap =
        std::move(model).intoSnapshot(sopts);
    updateBuilder = std::make_unique<snapshot::SnapshotBuilder>(*snap);
    source.publish(std::move(snap));
}

void
Server::start()
{
    if (!source.hasSnapshot())
        throw std::logic_error("Server::start: no model loaded");
    if (!cfg.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (cfg.unixPath.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("serve: socket path too long: " +
                                     cfg.unixPath);
        std::strncpy(addr.sun_path, cfg.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            throw std::runtime_error(
                std::string("serve: socket: ") +
                std::strerror(errno));
        ::unlink(cfg.unixPath.c_str());
        if (::bind(listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int err = errno;
            ::close(listenFd);
            listenFd = -1;
            throw std::runtime_error("serve: bind " + cfg.unixPath +
                                     ": " + std::strerror(err));
        }
    } else {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            throw std::runtime_error(
                std::string("serve: socket: ") +
                std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(cfg.tcpPort);
        if (::bind(listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int err = errno;
            ::close(listenFd);
            listenFd = -1;
            throw std::runtime_error(
                std::string("serve: bind loopback:") +
                std::to_string(cfg.tcpPort) + ": " +
                std::strerror(err));
        }
        socklen_t len = sizeof(addr);
        ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        resolvedPort = ntohs(addr.sin_port);
    }
    if (::listen(listenFd, 64) != 0) {
        const int err = errno;
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error(std::string("serve: listen: ") +
                                 std::strerror(err));
    }
    {
        std::lock_guard<std::mutex> lock(stateMu);
        started = true;
        stopping = false;
    }
    acceptThread = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // Listener shut down (stop()) or broken: exit.
            break;
        }
        std::lock_guard<std::mutex> lock(connMu);
        // Give back the threads (and stacks) of closed connections.
        conns.remove_if([](const Connection &c) { return c.done; });
        Connection &conn = conns.emplace_back();
        conn.fd = fd;
        try {
            conn.thread =
                std::jthread([this, &conn] { serveConnection(conn); });
        } catch (const std::system_error &) {
            // No thread to serve it (EAGAIN): refuse this connection
            // and keep accepting.
            ::close(fd);
            conns.pop_back();
        }
    }
}

void
Server::serveConnection(Connection &conn)
{
    try {
        Frame frame;
        while (readFrame(conn.fd, frame))
            handleRequest(conn.fd, frame);
    } catch (const std::exception &) {
        // Peer vanished or sent garbage; drop the connection. Every
        // in-protocol error was already answered with an error
        // response inside handleRequest.
    }
    // Close under the lock so stop() never shuts down a recycled
    // descriptor number.
    std::lock_guard<std::mutex> lock(connMu);
    ::close(conn.fd);
    conn.done = true;
}

void
Server::handleRequest(int fd, const Frame &frame)
{
    try {
        Reader req(frame.payload);
        std::vector<std::uint8_t> payload;
        switch (static_cast<MsgType>(frame.type)) {
        case MsgType::Ping:
            payload = doPing();
            break;
        case MsgType::Classify:
            payload = doClassify(req);
            break;
        case MsgType::Search:
            payload = doSearch(req);
            break;
        case MsgType::TopK:
            payload = doTopK(req);
            break;
        case MsgType::Stats:
            payload = doStats();
            break;
        case MsgType::Trace:
            payload = doTrace();
            break;
        case MsgType::Update:
            payload = doUpdate(req);
            break;
        case MsgType::Swap:
            payload = doSwap();
            break;
        case MsgType::Shutdown: {
            writeResponse(fd, frame.type, kOk, {});
            std::lock_guard<std::mutex> lock(stateMu);
            stopping = true;
            stateCv.notify_all();
            // Unblock the accept loop; joining happens in stop().
            ::shutdown(listenFd, SHUT_RDWR);
            return;
        }
        default:
            throw std::runtime_error(
                "serve: unknown request type " +
                std::to_string(frame.type));
        }
        writeResponse(fd, frame.type, kOk, payload);
    } catch (const std::exception &e) {
        writeResponse(fd, frame.type, kError, bytesOf(e.what()));
    }
}

snapshot::SnapshotRef
Server::pinOrThrow() const
{
    snapshot::SnapshotRef pin = source.acquire();
    if (!pin)
        throw std::runtime_error("serve: no model loaded");
    return pin;
}

std::vector<std::uint8_t>
Server::doPing()
{
    const snapshot::SnapshotRef pin = pinOrThrow();
    Writer out;
    out.u32(protocolVersion);
    out.u64(pin->sequence());
    out.u64(pin->dim());
    out.u64(pin->classes());
    return out.take();
}

std::vector<std::uint8_t>
Server::doClassify(Reader &req)
{
    const std::uint32_t count = req.u32();
    std::vector<std::string> texts;
    for (std::uint32_t i = 0; i < count; ++i)
        texts.push_back(req.str());

    // One pin serves the whole request: encode and scan against
    // exactly one published snapshot.
    const snapshot::SnapshotRef pin = pinOrThrow();
    const lang::PipelineConfig defaults;
    const Encoder encoder(itemsOf(*pin), defaults.ngram);
    Rng rng(classifySeed());

    std::vector<Hypervector> queries;
    queries.reserve(texts.size());
    for (const std::string &text : texts) {
        if (text.size() < encoder.ngramSize())
            throw std::runtime_error(
                "serve: text shorter than the n-gram size (" +
                std::to_string(encoder.ngramSize()) + ")");
        queries.push_back(encoder.encode(text, rng));
    }
    return nearestReply(*pin, queries, cfg.threads);
}

std::vector<std::uint8_t>
Server::doSearch(Reader &req)
{
    const snapshot::SnapshotRef pin = pinOrThrow();
    return nearestReply(*pin, readQueries(req, pin->dim()),
                        cfg.threads);
}

std::vector<std::uint8_t>
Server::doTopK(Reader &req)
{
    const std::uint32_t k = req.u32();
    const snapshot::SnapshotRef pin = pinOrThrow();
    const AssociativeMemory &memory = pin->memory();
    const std::vector<Hypervector> queries =
        readQueries(req, memory.dim());

    Writer out;
    out.u64(pin->sequence());
    out.u32(static_cast<std::uint32_t>(queries.size()));
    for (const Hypervector &query : queries) {
        const std::vector<RankedMatch> ranked =
            memory.searchTopK(query, k);
        out.u32(static_cast<std::uint32_t>(ranked.size()));
        for (const RankedMatch &m : ranked) {
            out.u64(m.classId);
            out.u64(m.distance);
        }
    }
    return out.take();
}

std::vector<std::uint8_t>
Server::doUpdate(Reader &req)
{
    if (updateBuilder == nullptr)
        throw std::runtime_error("serve: no model loaded");
    const std::uint8_t mode = req.u8();
    const std::uint32_t threshold = req.u32();
    const std::uint32_t count = req.u32();

    const snapshot::SnapshotRef pin = pinOrThrow();
    const lang::PipelineConfig defaults;
    const Encoder encoder(itemsOf(*pin), defaults.ngram);
    Rng rng(updateSeed());

    std::uint32_t applied = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::string label = req.str();
        const std::string text = req.str();
        if (text.size() < encoder.ngramSize())
            throw std::runtime_error(
                "serve: update sample shorter than the n-gram "
                "size");
        const Hypervector hv = encoder.encode(text, rng);
        if (mode == kAssimilate) {
            updateBuilder->assimilate(hv, label, threshold);
        } else if (mode == kLabeled) {
            updateBuilder->addLabeledSample(label, hv);
        } else {
            throw std::runtime_error("serve: unknown update mode " +
                                     std::to_string(mode));
        }
        ++applied;
    }

    Writer out;
    out.u32(applied);
    out.u64(updateBuilder->classes());
    return out.take();
}

std::vector<std::uint8_t>
Server::doSwap()
{
    if (updateBuilder == nullptr)
        throw std::runtime_error("serve: no model loaded");
    const std::uint64_t seq = updateBuilder->publish(source);
    const snapshot::SnapshotBuilder::PublishStats stats =
        updateBuilder->lastPublish();
    Writer out;
    out.u64(seq);
    out.f64(stats.buildUs);
    out.f64(stats.swapUs);
    return out.take();
}

std::vector<std::uint8_t>
Server::doStats()
{
    return bytesOf(statsJson());
}

std::string
Server::statsJson()
{
    std::lock_guard<std::mutex> lock(registryMu);
    const snapshot::SnapshotRef pin = source.acquire();
    if (pin) {
        registry.setGauge("model.dim",
                          static_cast<double>(pin->dim()));
        registry.setGauge("model.classes",
                          static_cast<double>(pin->classes()));
        registry.setGauge("snapshot.sequence",
                          static_cast<double>(pin->sequence()));
        if (pin->mapped())
            modelload::recordResidency(registry, *pin->modelView());
    }
    registry.setGauge("snapshot.swaps",
                      static_cast<double>(source.swaps()));
    registry.setGauge(
        "snapshot.live",
        static_cast<double>(
            snapshot::SnapshotSource::liveSnapshots()));
    registry.setGauge("run.threads",
                      static_cast<double>(cfg.threads));
    registry.setInfo("kernel", distance::activeKernelName());
    registry.setInfo("kernels_available",
                     distance::availableKernelList());
    registry.setInfo("protocol", "hdham.serve.v1");
    return registry.toJson();
}

std::vector<std::uint8_t>
Server::doTrace()
{
    if (!cfg.trace)
        throw std::runtime_error(
            "serve: tracing disabled (start the server with "
            "--trace)");
    std::lock_guard<std::mutex> lock(traceMu);
    // Deactivate while exporting so no new span writes into the
    // buffers being read; spans already in flight on a scan thread
    // finish against the old pointer, so export when traffic is
    // quiet for an exact picture.
    trace::setActive(nullptr);
    std::ostringstream out;
    tracer.writeChromeJson(out);
    trace::setActive(&tracer);
    return bytesOf(out.str());
}

void
Server::wait()
{
    {
        std::unique_lock<std::mutex> lock(stateMu);
        stateCv.wait(lock, [this] { return stopping || !started; });
    }
    stop();
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(stateMu);
        if (!started)
            return;
        started = false;
        stopping = true;
        stateCv.notify_all();
    }
    // Unblock accept(), then join the acceptor so the connection
    // list stops growing.
    ::shutdown(listenFd, SHUT_RDWR);
    if (acceptThread.joinable())
        acceptThread.join();
    // Unblock every connection reader, then join them all (erasing
    // an entry joins its thread); each closes its own socket.
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (const Connection &conn : conns) {
            if (!conn.done)
                ::shutdown(conn.fd, SHUT_RDWR);
        }
    }
    conns.clear();
    ::close(listenFd);
    listenFd = -1;
    if (!cfg.unixPath.empty())
        ::unlink(cfg.unixPath.c_str());
}

} // namespace hdham::serve

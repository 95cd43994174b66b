/**
 * @file
 * serve_mixed: an in-process serve::Server on a unix socket serving the
 * trained model to three closed-loop connections (each caller waits for
 * its reply before sending the next request):
 *
 *  - two readers, each sending one held-out sentence per Classify --
 *    what `hdham query classify TEXT` sends;
 *  - one writer streaming 8-sample labeled Updates (chunks of the
 *    languages' training text) and a Swap after every 8th Update.
 *
 * The writer puts bundling, publish and swap beside the read path, so
 * a read-path gain that costs writes or swaps shows up here.
 *
 * Every Classify reply is checked against an in-process oracle: a
 * fresh Rng(PipelineConfig{}.seed ^ "clif") per request, then
 * Encoder::encode and searchBatch on the snapshot the reply names
 * (the writer spools the rows of each snapshot it publishes). Reply
 * sequences must be monotone on each connection.
 */

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/json.hh"
#include "core/model_file.hh"
#include "core/snapshot.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdham;

constexpr std::size_t kReaders = 2;
constexpr std::size_t kSamplesPerUpdate = 8;
constexpr std::size_t kUpdatesPerSwap = 8;
/** Classify requests the traced run replays in-process. */
constexpr std::size_t kReplay = 1000;
/** Time windows a run is split into. */
constexpr std::size_t kWindows = 5;

/** The Rng seed the server (and `hdham classify`) encodes with. */
std::uint64_t
classifySeed()
{
    return lang::PipelineConfig{}.seed ^ 0x636c6966ULL; // "clif"
}

/** One held-out sentence and its language. */
struct Sentence
{
    const std::string *text;
    std::size_t lang;
};

/** One Classify round trip as a reader saw it. */
struct ReadRecord
{
    std::size_t sentence = 0;
    double sentAt = 0.0;
    double rttUs = 0.0;
    bool ok = false;
    serve::QueryReply reply;
};

/** A served model: the server and its connections. */
struct Serving
{
    std::unique_ptr<serve::Server> server;
    std::vector<serve::Client> clients;

    Serving() = default;
    Serving(const Serving &) = delete;
    Serving &operator=(const Serving &) = delete;
    ~Serving()
    {
        clients.clear();
        if (server)
            server->stop();
    }
};

/**
 * The class rows of every published snapshot, by sequence, spooled to
 * a file so the oracle's record of a run does not grow the process's
 * memory with the number of swaps.
 */
class RowLog
{
  public:
    explicit RowLog(std::string file)
        : path(std::move(file)), out(path, std::ios::binary)
    {
    }

    /** Append @p snap's rows under its sequence number. */
    void record(const snapshot::MemorySnapshot &snap)
    {
        offsets[snap.sequence()] = written;
        dim = snap.dim();
        classes = snap.classes();
        for (std::size_t id = 0; id < classes; ++id) {
            const Hypervector row = snap.memory().vectorOf(id);
            const std::size_t bytes = row.words() * sizeof(std::uint64_t);
            out.write(reinterpret_cast<const char *>(row.data()),
                      static_cast<std::streamsize>(bytes));
            written += bytes;
        }
    }

    bool has(std::uint64_t sequence) const
    {
        return offsets.count(sequence) != 0;
    }

    /** The rows recorded for @p sequence. @pre has(sequence). */
    std::vector<Hypervector> read(std::uint64_t sequence)
    {
        out.flush();
        std::ifstream in(path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offsets.at(sequence)));
        std::vector<std::uint64_t> words(
            (dim + Hypervector::bitsPerWord - 1) / Hypervector::bitsPerWord);
        std::vector<Hypervector> rows;
        for (std::size_t id = 0; id < classes; ++id) {
            in.read(reinterpret_cast<char *>(words.data()),
                    static_cast<std::streamsize>(words.size() *
                                                 sizeof(std::uint64_t)));
            if (!in)
                throw std::runtime_error("serve_mixed: row log truncated");
            rows.push_back(Hypervector::fromWords(dim, words.data()));
        }
        return rows;
    }

  private:
    std::string path;
    std::ofstream out;
    std::map<std::uint64_t, std::size_t> offsets;
    std::size_t written = 0;
    std::size_t dim = 0;
    std::size_t classes = 0;
};

/** What the writer did, for the checks and the metrics. */
struct WriterLog
{
    std::size_t updates = 0;
    std::vector<double> updateRttUs;
    std::vector<double> swapRttUs;
    /** Wall time of each whole write cycle: the Updates and their Swap. */
    std::vector<double> cycleS;
    std::vector<double> buildUs;
    std::vector<double> swapUs;
    std::vector<std::uint32_t> applied;
    std::vector<std::uint64_t> swapSequences;
    RowLog rows{"snapshots.rows"};
    std::string error;
};

/** A seeded chunk of a language's training text, as an update. */
std::pair<std::string, std::string>
updateSample(const lang::SyntheticCorpus &corpus, Rng &rng)
{
    const std::size_t lang = rng.next() % corpus.numLanguages();
    const std::string &text = corpus.trainingText(lang);
    const std::size_t len = 40 + rng.next() % 120;
    const std::size_t at = rng.next() % (text.size() - len);
    return {corpus.labelOf(lang), text.substr(at, len)};
}

void
readLoop(serve::Client &client, const std::vector<Sentence> &sentences,
         Rng rng, double deadline, std::vector<ReadRecord> &out)
{
    while (now() < deadline) {
        ReadRecord rec;
        rec.sentence = rng.next() % sentences.size();
        const double t0 = now();
        rec.sentAt = t0;
        try {
            rec.reply = client.classify({*sentences[rec.sentence].text});
            rec.ok = true;
        } catch (const std::exception &) {
            rec.ok = false;
        }
        rec.rttUs = 1e6 * (now() - t0);
        out.push_back(std::move(rec));
    }
}

void
writeLoop(serve::Client &client, serve::Server &server,
          const lang::SyntheticCorpus &corpus, Rng rng, double deadline,
          WriterLog &log)
{
    try {
        double cycleStart = now();
        while (now() < deadline) {
            std::vector<std::pair<std::string, std::string>> batch;
            for (std::size_t i = 0; i < kSamplesPerUpdate; ++i)
                batch.push_back(updateSample(corpus, rng));
            const double u0 = now();
            const serve::UpdateReply up =
                client.update(serve::kLabeled, batch);
            log.updateRttUs.push_back(1e6 * (now() - u0));
            log.applied.push_back(up.applied);
            if (++log.updates % kUpdatesPerSwap != 0)
                continue;
            const double t0 = now();
            const serve::SwapReply sw = client.swap();
            const double cycleEnd = now();
            log.swapRttUs.push_back(1e6 * (cycleEnd - t0));
            log.cycleS.push_back(cycleEnd - cycleStart);
            log.buildUs.push_back(sw.buildUs);
            log.swapUs.push_back(sw.swapUs);
            log.swapSequences.push_back(sw.sequence);
            // The oracle's record, outside the timed cycle. This
            // connection is the only publisher, so the current snapshot
            // is the one the swap just published.
            const snapshot::SnapshotRef pin = server.snapshots().acquire();
            log.rows.record(*pin);
            cycleStart = now();
        }
    } catch (const std::exception &e) {
        log.error = e.what();
    }
}

/** Start a server on @p model with @p connections ready clients. */
void
startServing(Serving &s, const std::string &model,
             const std::string &socket, std::size_t connections)
{
    serve::ServerConfig cfg;
    cfg.unixPath = socket;
    s.server = std::make_unique<serve::Server>(cfg);
    s.server->loadModel(model);
    s.server->start();
    for (std::size_t i = 0; i < connections; ++i) {
        s.clients.push_back(serve::Client::connectUnix(socket));
        s.clients.back().ping();
    }
}

std::uint64_t
counter(const std::string &statsJson, const std::string &name)
{
    const json::Value doc = json::parse(statsJson);
    const json::Value *v = doc.at("counters").find(name);
    return v == nullptr ? 0
                        : static_cast<std::uint64_t>(v->asNumber());
}

} // namespace

Report
runServeMixed(const RunArgs &args)
{
    const CalibrationLoop loop = CalibrationLoop::Bundle;
    Report report;
    const std::string model = "serve_mixed.model";
    const std::string socket = "serve.sock";

    // The input: `hdham train`'s model, trained and saved once,
    // untimed. Set-up generates the corpus the clients send (as
    // train_lang's does), starts a server on the model file (map and
    // verify it) and connects the three clients.
    {
        const lang::SyntheticCorpus corpus(corpusFor(args.seed));
        const lang::RecognitionPipeline pipeline(corpus);
        modelfile::SaveOptions opts;
        opts.items = &pipeline.itemMemory();
        modelfile::save(model, pipeline.memory(), opts);
    }
    std::unique_ptr<lang::SyntheticCorpus> clientCorpus;
    std::optional<Serving> serving;
    double setupRawS = 0.0;
    const double setupS = timedSetups(9, [&] {
        serving.reset();
        clientCorpus.reset();
        clientCorpus = std::make_unique<lang::SyntheticCorpus>(
            corpusFor(args.seed));
        serving.emplace();
        startServing(*serving, model, socket, kReaders + 1);
    }, loop, setupRawS);
    const lang::SyntheticCorpus &corpus = *clientCorpus;
    serve::Server &server = *serving->server;

    std::vector<Sentence> sentences;
    for (std::size_t lang = 0; lang < corpus.numLanguages(); ++lang) {
        for (const std::string &text : corpus.testSentences(lang))
            sentences.push_back({&text, lang});
    }

    WriterLog writer;
    std::uint64_t firstSeq = 0;
    std::optional<ItemMemory> items;
    std::vector<std::string> labels;
    {
        const snapshot::SnapshotRef first = server.snapshots().acquire();
        firstSeq = first->sequence();
        writer.rows.record(*first);
        items.emplace(first->itemMemory());
        for (std::size_t id = 0; id < first->classes(); ++id)
            labels.push_back(first->memory().labelOf(id));
    }

    std::vector<std::vector<ReadRecord>> reads(kReaders);
    const double start = now();
    const double deadline = start + args.seconds;
    {
        std::vector<std::thread> threads;
        for (std::size_t r = 0; r < kReaders; ++r) {
            threads.emplace_back(readLoop, std::ref(serving->clients[r]),
                                 std::cref(sentences),
                                 Rng(args.seed ^ (0x7265616431ULL + r)),
                                 deadline, std::ref(reads[r]));
        }
        threads.emplace_back(writeLoop,
                             std::ref(serving->clients[kReaders]),
                             std::ref(server), std::cref(corpus),
                             Rng(args.seed ^ 0x7772697465ULL), deadline,
                             std::ref(writer));
        for (std::thread &t : threads)
            t.join();
    }
    const double elapsed = now() - start;

    // Oracle checks, after the window: group the replies by the
    // snapshot they name and check each group against that snapshot's
    // rows.
    Checks &checks = report.checks;
    std::map<std::uint64_t, std::vector<const ReadRecord *>> bySequence;
    std::vector<double> rtt;
    const auto windowOf = [&](double t) {
        const double w = (t - start) / args.seconds *
                         static_cast<double>(kWindows);
        return std::min(kWindows - 1,
                        static_cast<std::size_t>(std::max(w, 0.0)));
    };
    std::vector<std::vector<double>> rttWindows(kWindows);
    for (const std::vector<ReadRecord> &conn : reads) {
        std::uint64_t lastSeq = 0;
        for (const ReadRecord &rec : conn) {
            const bool answered =
                rec.ok && rec.reply.results.size() == 1 &&
                writer.rows.has(rec.reply.sequence);
            checks.expect(answered, "serve_mixed: classify failed or "
                                    "named an unpublished snapshot");
            if (!answered)
                continue;
            checks.expect(rec.reply.sequence >= lastSeq,
                          "serve_mixed: reply sequence went backwards");
            lastSeq = rec.reply.sequence;
            bySequence[rec.reply.sequence].push_back(&rec);
            rtt.push_back(rec.rttUs);
            rttWindows[windowOf(rec.sentAt)].push_back(rec.rttUs);
        }
    }
    const Encoder oracle(*items, lang::PipelineConfig{}.ngram);
    std::vector<std::optional<Hypervector>> encoded(sentences.size());
    std::vector<lang::LabeledQuery> truth;
    std::vector<std::size_t> predicted;
    for (const auto &[sequence, records] : bySequence) {
        AssociativeMemory memory(items->dim());
        const std::vector<Hypervector> rows = writer.rows.read(sequence);
        for (std::size_t id = 0; id < rows.size(); ++id)
            memory.store(rows[id], labels[id]);
        for (const ReadRecord *rec : records) {
            std::optional<Hypervector> &q = encoded[rec->sentence];
            if (!q.has_value()) {
                Rng rng(classifySeed());
                q = oracle.encode(*sentences[rec->sentence].text, rng);
            }
            const SearchResult want = memory.searchBatch({*q}, 1)[0];
            const serve::MatchReply &got = rec->reply.results[0];
            checks.expect(got.classId == want.classId &&
                              got.distance == want.bestDistance &&
                              got.label == memory.labelOf(want.classId),
                          "serve_mixed: classify reply differs from the "
                          "oracle");
            // Labeled updates never add a class, so class ids stay the
            // corpus's language ids.
            truth.push_back({Hypervector(), sentences[rec->sentence].lang});
            predicted.push_back(got.classId);
        }
    }
    const std::size_t served = rtt.size();
    checks.expect(writer.error.empty(), "serve_mixed: writer failed");
    for (const std::uint32_t applied : writer.applied)
        checks.expect(applied == kSamplesPerUpdate,
                      "serve_mixed: update applied a wrong count");
    for (std::size_t i = 0; i < writer.swapSequences.size(); ++i)
        checks.expect(writer.swapSequences[i] == firstSeq + i + 1,
                      "serve_mixed: swap sequence not consecutive");

    const double decideT0 = now();
    const double accuracy =
        lang::scorePredictions(truth, corpus.numLanguages(), predicted)
            .accuracy();
    const double decideS = now() - decideT0;
    const double qps = static_cast<double>(served) / elapsed;
    // Over whole write cycles only, which leave out the oracle's
    // record of each published snapshot.
    double cyclesS = 0.0;
    for (const double c : writer.cycleS)
        cyclesS += c;
    const double samplesPerS =
        static_cast<double>(kSamplesPerUpdate * kUpdatesPerSwap *
                            writer.cycleS.size()) /
        cyclesS;

    if (!args.trace) {
        EndToEnd e;
        // Wall-clock, not host-normalized: beside the three busy server
        // threads the calibration loop measures this process more than
        // the host. Per window, the median round trip and the replies
        // per second; then the median over the windows. The writer's
        // figures are printed below, not gated: its rate falls into one
        // of two modes ~20% apart from run to run.
        e.setupS = setupRawS;
        e.peakRssMb = peakRssMb();
        const double windowS = args.seconds / static_cast<double>(kWindows);
        std::vector<double> p50s, rates;
        for (const std::vector<double> &window : rttWindows) {
            if (window.empty())
                continue;
            p50s.push_back(median(window));
            rates.push_back(static_cast<double>(window.size()) / windowS);
        }
        e.latencyMs = 1e-3 * median(p50s);
        e.opsPerS = median(rates);
        e.accuracy = accuracy;
        addEndToEnd(report, e);
        report.detail("setup_normalized_s", setupS, "s");
        report.detail("qps", qps, "1/s");
        report.detail("p50_us", median(rtt), "us");
        report.detail("p90_us", quantile(rtt, 0.90), "us");
        report.detail("p99_us", quantile(rtt, 0.99), "us");
        report.detail("update_samples_per_s", samplesPerS, "1/s");
        report.detail("update_p50_us", median(writer.updateRttUs), "us");
        report.detail("swap_p50_us", median(writer.swapRttUs), "us");
        report.detail("swaps", static_cast<double>(writer.swapRttUs.size()),
                      "count");
        report.detail("classify_replies", static_cast<double>(served),
                      "count");
        return report;
    }

    // Traced: time the server's per-request calls in-process, on the
    // texts the readers sent and the last published snapshot, with
    // the server quiet. The server's scan counter is read first: the
    // replay's searches would add to it.
    LayerSample s;
    s.rowsScanned = counter(server.statsJson(), "serve.rows_scanned") /
                    std::max<std::size_t>(served, 1);
    const snapshot::SnapshotRef pin = server.snapshots().acquire();
    const snapshot::MemorySnapshot &snap = *pin;
    std::vector<const std::string *> texts;
    for (const ReadRecord &rec : reads[0]) {
        if (texts.size() == kReplay)
            break;
        texts.push_back(sentences[rec.sentence].text);
    }

    std::vector<double> pinUs;
    for (int round = 0; round < 5; ++round) {
        constexpr int kPins = 10000;
        const double t0 = now();
        for (int i = 0; i < kPins; ++i)
            server.snapshots().acquire();
        pinUs.push_back(1e6 * (now() - t0) / kPins);
    }
    s.pinUs = median(pinUs);

    // Each request twice, alternating so both see the same machine:
    // whole, with one call per step as doClassify makes them, then
    // split into layers. Consecutive requests form windows; the
    // quietest window (by traced total) gives the per-request figures.
    struct Replayed
    {
        double plainUs, setupUs, encodeUs, scanUs, tracedUs;
    };
    std::vector<std::vector<Replayed>> windows(kWindows);
    LayerClock clock;
    std::uint64_t chars = 0, ngrams = 0, majorities = 0;
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const std::string &text = *texts[i];
        Replayed r{};
        {
            const double t0 = now();
            const Encoder encoder(snap.itemMemory(),
                                  lang::PipelineConfig{}.ngram);
            Rng rng(classifySeed());
            const Hypervector q = encoder.encode(text, rng);
            snap.memory().searchBatch({q}, 1);
            r.plainUs = 1e6 * (now() - t0);
        }
        const double t0 = now();
        const Encoder encoder(snap.itemMemory(),
                              lang::PipelineConfig{}.ngram);
        const double t1 = now();
        TracedEncoder traced(encoder, clock);
        Rng rng(classifySeed());
        const double t2 = now();
        const Hypervector q = traced.encode(text, rng);
        const double t3 = now();
        snap.memory().searchBatch({q}, 1);
        const double t4 = now();
        r.setupUs = 1e6 * (t1 - t0);
        r.encodeUs = 1e6 * (t3 - t2);
        r.scanUs = 1e6 * (t4 - t3);
        r.tracedUs = r.setupUs + r.encodeUs + r.scanUs;
        clock.charge("scan", t4 - t3);
        chars += traced.chars();
        ngrams += traced.ngrams();
        majorities += traced.majorities();
        windows[i * kWindows / texts.size()].push_back(r);
    }
    const auto column = [](const std::vector<Replayed> &w,
                           double Replayed::*field) {
        std::vector<double> v;
        for (const Replayed &r : w)
            v.push_back(r.*field);
        return median(v);
    };
    const std::vector<Replayed> *quiet = &windows[0];
    for (const std::vector<Replayed> &w : windows) {
        if (!w.empty() && column(w, &Replayed::tracedUs) <
                              column(*quiet, &Replayed::tracedUs))
            quiet = &w;
    }
    takeEncodeLayers(clock, s);
    s.chars = chars;
    s.ngrams = ngrams;
    s.majorityCalls = majorities;
    s.encoderSetupUs = column(*quiet, &Replayed::setupUs);
    s.encodeUs = column(*quiet, &Replayed::encodeUs);
    s.scanUs = column(*quiet, &Replayed::scanUs);
    s.scanS = clock.self("scan");
    const double plainUs = column(*quiet, &Replayed::plainUs);
    const double tracedUs = column(*quiet, &Replayed::tracedUs);

    std::vector<double> pingUs;
    for (int i = 0; i < 500; ++i) {
        const double t0 = now();
        serving->clients[0].ping();
        pingUs.push_back(1e6 * (now() - t0));
    }
    s.pingUs = median(pingUs);
    const double inProcessUs =
        s.pinUs + s.encoderSetupUs + s.encodeUs + s.scanUs;
    const double quietP50 = quietestMedian(rttWindows);
    s.residualUs = quietP50 - inProcessUs;

    // The update path: one addSample into a builder seeded like the
    // server's, per encoded update text.
    snapshot::SnapshotBuilder builder(snap);
    const Encoder encoder(snap.itemMemory(), lang::PipelineConfig{}.ngram);
    Rng sampleRng(args.seed ^ 0x7772697465ULL);
    Rng encodeRng(classifySeed());
    std::vector<double> addUs;
    for (int i = 0; i < 256; ++i) {
        const auto sample = updateSample(corpus, sampleRng);
        const Hypervector hv = encoder.encode(sample.second, encodeRng);
        std::size_t id = 0;
        while (id + 1 < builder.classes() &&
               builder.labelOf(id) != sample.first)
            ++id;
        const double t0 = now();
        builder.addSample(id, hv);
        addUs.push_back(1e6 * (now() - t0));
    }
    s.addSampleUs = median(addUs);
    s.publishBuildUs = median(writer.buildUs);
    s.publishSwapUs = median(writer.swapUs);
    s.decideS = decideS;
    s.overheadPct = 100.0 * (tracedUs / plainUs - 1.0);
    s.coveredPct = 100.0 * inProcessUs / quietP50;
    addLayers(report, s);
    report.detail("p50_us", quietP50, "us");
    report.detail("share.encoder_setup", s.encoderSetupUs / quietP50,
                  "ratio");
    report.detail("share.encode", s.encodeUs / quietP50, "ratio");
    report.detail("share.scan", s.scanUs / quietP50, "ratio");
    report.detail("share.residual", s.residualUs / quietP50, "ratio");
    return report;
}

} // namespace perfbench

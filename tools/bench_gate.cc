/**
 * @file
 * Query-path performance gate.
 *
 * Runs the two query-path microbenchmark binaries
 * (micro_batch_throughput, micro_software_am), collects queries/sec
 * per design x thread count plus the batch-latency p50/p95 from the
 * metrics snapshot, and compares the result against the committed
 * baseline at the repo root (BENCH_query_path.json, schema
 * hdham.bench.v1).
 *
 *   bench_gate [--baseline PATH] [--tolerance F] [--update-baseline]
 *              [--batch-bench PATH] [--micro-bench PATH]
 *              [--filter REGEX] [--skip-micro] [--strict-host]
 *
 * Default mode is the gate: every benchmark named in the baseline
 * must reach at least (1 - tolerance) of its baseline throughput;
 * any miss (or a benchmark that disappeared) exits non-zero with a
 * per-benchmark report. Latency quantiles are recorded for eyeballs
 * and dashboards but never gate -- wall-clock quantiles on shared CI
 * hardware are too noisy to fail a build on. The batch suite runs
 * with --perf, so the baseline also records IPC and the cache-miss
 * rate next to queries/sec -- informational like the quantiles,
 * never gated (and absent on hosts that deny perf_event_open).
 * BM_SnapshotServe's user counters (swap count, build/swap publish
 * latency, worst reader acquire stall) land in the baseline's
 * "serve" object under the same contract: recorded, reported,
 * never gated.
 *
 * A baseline recorded on a different machine (thread count or CPU
 * capability mismatch) cannot gate this one: by default the run
 * reports the comparison as a labeled warning and exits 0, since
 * cross-machine ratios are noise, not regressions. --strict-host
 * restores the old hard failure for environments that pin their
 * benchmark hosts.
 *
 * --update-baseline reruns the suite and rewrites the baseline file
 * instead of comparing. Refresh procedure: on a quiet machine run
 *
 *   ./build/tools/bench_gate --update-baseline
 *
 * from the repo root and commit the regenerated
 * BENCH_query_path.json together with the change that moved the
 * numbers.
 *
 * The benchmark binaries are located relative to this executable
 * (../bench/...) unless overridden, so the tool works from any
 * working directory inside the build tree.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/distance.hh"
#include "core/json.hh"

namespace
{

using hdham::json::parse;
using hdham::json::Value;
using hdham::json::writeEscaped;
using hdham::json::writeNumber;

struct LatencySummary
{
    double p50Us = 0.0;
    double p95Us = 0.0;
};

/** Everything one suite run produces. */
struct SuiteResult
{
    /** queries/sec keyed by google-benchmark name. */
    std::map<std::string, double> throughput;
    /** real time per iteration (ns) for benchmarks without a rate. */
    std::map<std::string, double> referenceNs;
    /** batch-latency quantiles keyed by histogram name. */
    std::map<std::string, LatencySummary> latencyUs;
    /** Hamming kernel the batch suite ran with (from its metrics
     *  snapshot); empty when the snapshot predates kernel info. */
    std::string kernel;
    /** Hardware-counter facts from the batch suite's --perf run
     *  (ipc, llc_miss_per_kinst, available, ...); empty when the
     *  host denied perf_event_open. Informational only. */
    std::map<std::string, double> perf;
    /** Snapshot-serving counters from BM_SnapshotServe (swap count,
     *  build/swap latency, worst reader acquire stall), keyed
     *  "<benchmark>.<counter>". Informational only: swap latency on
     *  shared hardware is as noisy as the wall-clock quantiles. */
    std::map<std::string, double> serve;
};

/** Hardware threads of the machine running the gate. */
std::size_t
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * CPU capability fingerprint: the comma-joined list of Hamming
 * backends this host can execute, straight from the kernel
 * registry. Coarse on purpose -- it changes exactly when the set of
 * benchmarkable backends changes, which is what makes two machines'
 * numbers incomparable.
 */
std::string
hostCpuFlags()
{
    return hdham::distance::availableKernelList();
}

/**
 * The backends compiled into this binary (independent of host
 * support). Recorded next to the available list so a baseline also
 * remembers which kernels the recording *build* even contained --
 * a rebuild that drops or gains a backend is as incomparable as a
 * CPU change.
 */
std::string
hostCompiledKernels()
{
    return hdham::distance::compiledKernelList();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_gate [--baseline PATH] [--tolerance F]\n"
        "                  [--update-baseline] [--batch-bench PATH]\n"
        "                  [--micro-bench PATH] [--filter REGEX]\n"
        "                  [--skip-micro]\n"
        "\n"
        "  --baseline PATH   baseline file (default "
        "BENCH_query_path.json)\n"
        "  --tolerance F     allowed throughput drop, fraction "
        "(default 0.25)\n"
        "  --update-baseline rewrite the baseline instead of "
        "comparing\n"
        "  --batch-bench P   micro_batch_throughput binary\n"
        "  --micro-bench P   micro_software_am binary\n"
        "  --filter REGEX    forwarded as --benchmark_filter\n"
        "  --skip-micro      gate on micro_batch_throughput only\n"
        "  --strict-host     fail (instead of warn and exit 0) when "
        "the baseline was recorded on a\n"
        "                    different host fingerprint\n");
    return 2;
}

/** Directory part of @p path including the trailing slash. */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

/** Run @p command and capture its stdout. Throws on failure. */
std::string
capture(const std::string &command)
{
    std::FILE *pipe = ::popen(command.c_str(), "r");
    if (!pipe) {
        throw std::runtime_error("bench_gate: cannot run: " +
                                 command);
    }
    std::string output;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        output.append(buf, got);
    const int status = ::pclose(pipe);
    if (status != 0) {
        throw std::runtime_error("bench_gate: command failed (" +
                                 std::to_string(status) +
                                 "): " + command);
    }
    return output;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("bench_gate: cannot read " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Shell-quote @p path for the popen command line. */
std::string
quoted(const std::string &path)
{
    std::string out = "'";
    for (const char c : path) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/**
 * Fold one google-benchmark JSON document into @p result: rate
 * benchmarks land in throughput (items == queries for the batch
 * suite), the rest keep their real time as a reference number.
 */
void
collectBenchmarks(const std::string &jsonText, SuiteResult &result)
{
    const Value doc = parse(jsonText);
    for (const Value &bench : doc.at("benchmarks").items()) {
        const Value *runType = bench.find("run_type");
        if (runType && runType->asString() != "iteration")
            continue;
        const std::string &name = bench.at("name").asString();
        if (const Value *rate = bench.find("items_per_second")) {
            result.throughput[name] = rate->asNumber();
        } else if (const Value *rt = bench.find("real_time")) {
            result.referenceNs[name] = rt->asNumber();
        }
        // The serving benchmark reports its swap/stall counters as
        // google-benchmark user counters; keep them next to the
        // throughput numbers, informational like the perf facts.
        if (name.rfind("BM_SnapshotServe", 0) == 0) {
            for (const char *key :
                 {"swaps", "build_us_mean", "swap_us_mean",
                  "swap_us_max", "acquire_us_max"}) {
                if (const Value *v = bench.find(key))
                    result.serve[name + "." + key] = v->asNumber();
            }
        }
    }
}

/**
 * Pull the batch-latency quantiles and the selected Hamming kernel
 * out of a metrics snapshot.
 */
void
collectLatency(const std::string &jsonText, SuiteResult &result)
{
    const Value doc = parse(jsonText);
    if (const Value *info = doc.find("info")) {
        if (const Value *kernel = info->find("kernel"))
            result.kernel = kernel->asString();
    }
    // The perf object is present whenever --perf ran; keep only the
    // real readings (unavailable counters are tagged -1).
    if (const Value *perf = doc.find("perf")) {
        for (const auto &[name, value] : perf->members()) {
            if (value.asNumber() >= 0.0)
                result.perf[name] = value.asNumber();
        }
    }
    const Value *histograms = doc.find("histograms");
    if (!histograms)
        return;
    for (const auto &[name, hist] : histograms->members()) {
        if (name.find("batch_latency_us") == std::string::npos)
            continue;
        const Value *count = hist.find("count");
        if (count && count->asNumber() == 0)
            continue;
        LatencySummary summary;
        if (const Value *p50 = hist.find("p50_us"))
            summary.p50Us = p50->asNumber();
        if (const Value *p95 = hist.find("p95_us"))
            summary.p95Us = p95->asNumber();
        result.latencyUs[name] = summary;
    }
}

SuiteResult
runSuite(const std::string &batchBench, const std::string &microBench,
         const std::string &filter, bool skipMicro)
{
    SuiteResult result;
    const std::string filterArg =
        filter.empty() ? std::string()
                       : " --benchmark_filter=" + quoted(filter);

    const std::string statsPath = batchBench + ".stats.tmp.json";
    std::fprintf(stderr, "bench_gate: running %s...\n",
                 batchBench.c_str());
    collectBenchmarks(
        capture(quoted(batchBench) + " --benchmark_format=json" +
                " --perf --stats-json " + quoted(statsPath) +
                filterArg + " 2>/dev/null"),
        result);
    collectLatency(readFile(statsPath), result);
    std::remove(statsPath.c_str());

    if (!skipMicro) {
        std::fprintf(stderr, "bench_gate: running %s...\n",
                     microBench.c_str());
        collectBenchmarks(
            capture(quoted(microBench) +
                    " --benchmark_format=json" + filterArg +
                    " 2>/dev/null"),
            result);
    }
    return result;
}

void
writeBaseline(std::ostream &out, const SuiteResult &result,
              double tolerance)
{
    out << "{\n";
    out << "  \"schema\": \"hdham.bench.v1\",\n";
    out << "  \"tolerance\": ";
    writeNumber(out, tolerance);
    out << ",\n";

    if (!result.kernel.empty()) {
        out << "  \"kernel\": ";
        writeEscaped(out, result.kernel);
        out << ",\n";
    }

    // Host metadata next to the kernel: baseline numbers are only
    // meaningful on the machine that produced them, so the gate
    // refuses to compare across a thread-count or CPU-capability
    // change instead of reporting phantom regressions.
    out << "  \"host\": {\"threads\": ";
    writeNumber(out, static_cast<double>(hostThreads()));
    out << ", \"cpu\": ";
    writeEscaped(out, hostCpuFlags());
    out << ", \"kernels_compiled\": ";
    writeEscaped(out, hostCompiledKernels());
    out << "},\n";

    // Informational hardware-counter facts next to the throughput
    // numbers (IPC, cache-miss rates). Never gated; absent when the
    // recording host denied perf_event_open.
    if (!result.perf.empty()) {
        out << "  \"perf\": {";
        bool firstPerf = true;
        for (const auto &[name, value] : result.perf) {
            out << (firstPerf ? "\n    " : ",\n    ");
            writeEscaped(out, name);
            out << ": ";
            writeNumber(out, value);
            firstPerf = false;
        }
        out << "\n  },\n";
    }

    // Snapshot-swap latency and reader-stall facts from the serving
    // benchmark. Same contract as the perf object: recorded for
    // dashboards and eyeballs, never gated.
    if (!result.serve.empty()) {
        out << "  \"serve\": {";
        bool firstServe = true;
        for (const auto &[name, value] : result.serve) {
            out << (firstServe ? "\n    " : ",\n    ");
            writeEscaped(out, name);
            out << ": ";
            writeNumber(out, value);
            firstServe = false;
        }
        out << "\n  },\n";
    }

    out << "  \"throughput_qps\": {";
    bool first = true;
    for (const auto &[name, qps] : result.throughput) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, name);
        out << ": ";
        writeNumber(out, qps);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"latency_us\": {";
    first = true;
    for (const auto &[name, summary] : result.latencyUs) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, name);
        out << ": {\"p50_us\": ";
        writeNumber(out, summary.p50Us);
        out << ", \"p95_us\": ";
        writeNumber(out, summary.p95Us);
        out << "}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"reference_ns\": {";
    first = true;
    for (const auto &[name, ns] : result.referenceNs) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, name);
        out << ": ";
        writeNumber(out, ns);
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n";
    out << "}\n";
}

/**
 * Gate the measured throughput against the baseline document.
 * Returns the number of failures (regressions or missing
 * benchmarks).
 */
int
gate(const Value &baseline, const SuiteResult &current,
     double tolerance, bool skipMicro)
{
    int failures = 0;
    if (!current.kernel.empty()) {
        const Value *baseKernel = baseline.find("kernel");
        std::printf("kernel: %s (baseline: %s)\n",
                    current.kernel.c_str(),
                    baseKernel ? baseKernel->asString().c_str()
                               : "unrecorded");
        // A same-host run that nevertheless used a different
        // backend (HDHAM_KERNEL / --kernel pin, or a dispatch
        // change) compares apples to oranges kernel-wise; say so
        // loudly, but let the throughput gate decide pass/fail.
        if (baseKernel &&
            baseKernel->asString() != current.kernel) {
            std::fprintf(
                stderr,
                "bench_gate: WARNING: baseline was recorded with "
                "kernel '%s' but this run used '%s' -- throughput "
                "ratios compare different Hamming backends\n",
                baseKernel->asString().c_str(),
                current.kernel.c_str());
        }
    }
    std::printf("%-42s %14s %14s %7s  %s\n", "benchmark",
                "baseline q/s", "current q/s", "ratio", "status");
    for (const auto &[name, want] :
         baseline.at("throughput_qps").members()) {
        // With --skip-micro only the batch suite ran; don't flag
        // the micro_software_am rows as missing.
        const auto it = current.throughput.find(name);
        if (it == current.throughput.end()) {
            if (skipMicro)
                continue;
            std::printf("%-42s %14.3g %14s %7s  MISSING\n",
                        name.c_str(), want.asNumber(), "-", "-");
            ++failures;
            continue;
        }
        const double ratio = want.asNumber() > 0.0
                                 ? it->second / want.asNumber()
                                 : 1.0;
        const bool ok = ratio >= 1.0 - tolerance;
        std::printf("%-42s %14.3g %14.3g %7.3f  %s\n", name.c_str(),
                    want.asNumber(), it->second, ratio,
                    ok ? "ok" : "REGRESSION");
        if (!ok)
            ++failures;
    }
    for (const auto &[name, summary] : current.latencyUs) {
        std::printf("%-42s p50 %.1f us, p95 %.1f us "
                    "(informational)\n",
                    name.c_str(), summary.p50Us, summary.p95Us);
    }
    if (!current.perf.empty()) {
        std::string row;
        for (const char *key :
             {"ipc", "llc_miss_per_kinst", "cycles", "instructions",
              "page_faults"}) {
            const auto it = current.perf.find(key);
            if (it != current.perf.end()) {
                char cell[64];
                std::snprintf(cell, sizeof cell, " %s=%.3g", key,
                              it->second);
                row += cell;
            }
        }
        if (!row.empty())
            std::printf("perf (informational):%s\n", row.c_str());
    }
    if (!current.serve.empty()) {
        // Regroup "<benchmark>.<counter>" into one row per
        // benchmark run.
        std::map<std::string, std::string> rows;
        for (const auto &[key, value] : current.serve) {
            const std::size_t dot = key.rfind('.');
            if (dot == std::string::npos)
                continue;
            char cell[80];
            std::snprintf(cell, sizeof cell, " %s=%.3g",
                          key.substr(dot + 1).c_str(), value);
            rows[key.substr(0, dot)] += cell;
        }
        for (const auto &[name, row] : rows)
            std::printf("serve (informational): %s%s\n",
                        name.c_str(), row.c_str());
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath = "BENCH_query_path.json";
    std::string batchBench;
    std::string microBench;
    std::string filter;
    double tolerance = 0.25;
    bool update = false;
    bool skipMicro = false;
    bool strictHost = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--baseline" && hasValue) {
            baselinePath = argv[++i];
        } else if (arg == "--tolerance" && hasValue) {
            tolerance = std::strtod(argv[++i], nullptr);
        } else if (arg == "--batch-bench" && hasValue) {
            batchBench = argv[++i];
        } else if (arg == "--micro-bench" && hasValue) {
            microBench = argv[++i];
        } else if (arg == "--filter" && hasValue) {
            filter = argv[++i];
        } else if (arg == "--update-baseline") {
            update = true;
        } else if (arg == "--skip-micro") {
            skipMicro = true;
        } else if (arg == "--strict-host") {
            strictHost = true;
        } else {
            return usage();
        }
    }

    const std::string benchDir = dirOf(argv[0]) + "../bench/";
    if (batchBench.empty())
        batchBench = benchDir + "micro_batch_throughput";
    if (microBench.empty())
        microBench = benchDir + "micro_software_am";

    try {
        const SuiteResult current =
            runSuite(batchBench, microBench, filter, skipMicro);

        if (update) {
            std::ofstream out(baselinePath);
            if (!out) {
                throw std::runtime_error(
                    "bench_gate: cannot write " + baselinePath);
            }
            writeBaseline(out, current, tolerance);
            std::printf("baseline written to %s\n",
                        baselinePath.c_str());
            return 0;
        }

        const Value baseline = parse(readFile(baselinePath));
        const Value *schema = baseline.find("schema");
        if (!schema || schema->asString() != "hdham.bench.v1") {
            throw std::runtime_error(
                "bench_gate: " + baselinePath +
                " is not an hdham.bench.v1 document");
        }
        bool hostMismatch = false;
        std::string hostDiff;
        if (const Value *host = baseline.find("host")) {
            const Value *threads = host->find("threads");
            const Value *cpu = host->find("cpu");
            const Value *compiled = host->find("kernels_compiled");
            const double wantThreads =
                threads ? threads->asNumber() : 0.0;
            const std::string wantCpu =
                cpu ? cpu->asString() : std::string();
            // Baselines recorded before the backend list landed in
            // the fingerprint have no kernels_compiled field; treat
            // the current list as matching so old baselines only
            // mismatch on a real thread/CPU change.
            const std::string wantCompiled =
                compiled ? compiled->asString()
                         : hostCompiledKernels();
            if (wantThreads !=
                    static_cast<double>(hostThreads()) ||
                wantCpu != hostCpuFlags() ||
                wantCompiled != hostCompiledKernels()) {
                hostMismatch = true;
                hostDiff =
                    "baseline host (threads=" +
                    std::to_string(
                        static_cast<long long>(wantThreads)) +
                    ", cpu=" + wantCpu + ", kernels_compiled=" +
                    wantCompiled +
                    ") does not match this machine (threads=" +
                    std::to_string(hostThreads()) +
                    ", cpu=" + hostCpuFlags() +
                    ", kernels_compiled=" + hostCompiledKernels() +
                    ")";
            }
        }
        if (hostMismatch && strictHost) {
            // The pre---strict-host behavior: refuse to compare.
            throw std::runtime_error(
                "bench_gate: " + hostDiff +
                " -- cross-machine throughput comparisons produce "
                "phantom regressions; rerun 'bench_gate "
                "--update-baseline' on this machine");
        }
        const int failures =
            gate(baseline, current, tolerance, skipMicro);
        if (hostMismatch) {
            // Cross-machine ratios are noise, not regressions:
            // report, label, and pass.
            std::fprintf(stderr,
                         "bench_gate: WARNING: %s -- comparison is "
                         "informational only, not gating (pass "
                         "--strict-host to fail instead, or rerun "
                         "'bench_gate --update-baseline' on this "
                         "machine)\n",
                         hostDiff.c_str());
            return 0;
        }
        if (failures > 0) {
            std::fprintf(stderr,
                         "bench_gate: %d benchmark(s) below %.0f%% "
                         "of baseline\n",
                         failures, 100.0 * (1.0 - tolerance));
            return 1;
        }
        std::printf("bench_gate: all benchmarks within %.0f%% of "
                    "baseline\n",
                    100.0 * tolerance);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

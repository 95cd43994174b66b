#include "serve_commands.hh"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cli_args.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace hdham::serve
{

namespace
{

using namespace cli;

/**
 * Parse the shared `--socket PATH | --port N` endpoint flags.
 * Returns false (after a diagnostic) when neither or both are given
 * and @p required, leaving a usable "pick a free port" default for
 * the server side otherwise.
 */
bool
endpointOptions(std::vector<std::string> &args, const char *command,
                bool required, std::string *unixPath,
                std::uint16_t *port)
{
    *unixPath = option(args, "--socket", "");
    const std::string portArg = option(args, "--port", "");
    const bool gotPort = !portArg.empty();
    *port = gotPort ? parseNumber<std::uint16_t>("--port", portArg) : 0;
    if (!unixPath->empty() && gotPort) {
        std::fprintf(stderr,
                     "%s: --socket and --port are exclusive\n",
                     command);
        return false;
    }
    if (required && unixPath->empty() && !gotPort) {
        std::fprintf(stderr, "%s: need --socket PATH or --port N\n",
                     command);
        return false;
    }
    return true;
}

Client
connectClient(const std::string &unixPath, std::uint16_t port)
{
    if (!unixPath.empty())
        return Client::connectUnix(unixPath);
    return Client::connectTcp(port);
}

} // namespace

int
runServeCommand(std::vector<std::string> args)
{
    const std::string model = option(args, "--model", "");
    if (model.empty()) {
        std::fprintf(stderr, "serve: --model is required\n");
        return 2;
    }

    ServerConfig cfg;
    if (!endpointOptions(args, "serve", false, &cfg.unixPath,
                         &cfg.tcpPort))
        return 2;
    cfg.threads = numericOption(args, "--threads", 1);
    cfg.verifyChecksums = !boolOption(args, "--no-verify");
    cfg.trace = boolOption(args, "--trace");

    if (!kernelOption(args, "serve"))
        return 2;

    if (!args.empty()) {
        std::fprintf(stderr, "serve: unexpected argument '%s'\n",
                     args.front().c_str());
        return 2;
    }

    Server server(std::move(cfg));
    server.loadModel(model);
    server.start();
    if (server.port() != 0)
        std::printf("serving %s on loopback:%u\n", model.c_str(),
                    static_cast<unsigned>(server.port()));
    else
        std::printf("serving %s\n", model.c_str());
    std::fflush(stdout);
    server.wait();
    std::printf("server stopped\n");
    return 0;
}

int
runQueryCommand(std::vector<std::string> args)
{
    std::string unixPath;
    std::uint16_t port = 0;
    if (!endpointOptions(args, "query", true, &unixPath, &port))
        return 2;
    const bool assimilate = boolOption(args, "--assimilate");
    const std::uint32_t threshold =
        numericOption<std::uint32_t>(args, "--threshold", 0);
    if (args.empty()) {
        std::fprintf(stderr,
                     "query: need a verb (ping, classify, update, "
                     "swap, stats, trace, shutdown)\n");
        return 2;
    }
    const std::string verb = args.front();
    args.erase(args.begin());

    Client client = connectClient(unixPath, port);

    if (verb == "ping") {
        const PingReply reply = client.ping();
        std::printf("protocol %u, snapshot %llu, dim %llu, "
                    "classes %llu\n",
                    reply.protocol,
                    static_cast<unsigned long long>(reply.sequence),
                    static_cast<unsigned long long>(reply.dim),
                    static_cast<unsigned long long>(reply.classes));
        return 0;
    }
    if (verb == "classify") {
        if (args.empty()) {
            std::fprintf(stderr,
                         "query classify: need TEXT arguments\n");
            return 2;
        }
        const QueryReply reply = client.classify(args);
        std::printf("snapshot %llu\n", static_cast<unsigned long long>(
                                           reply.sequence));
        for (std::size_t i = 0; i < reply.results.size(); ++i) {
            const MatchReply &m = reply.results[i];
            std::printf("%s\tdistance %llu\t%s\n", m.label.c_str(),
                        static_cast<unsigned long long>(m.distance),
                        args[i].c_str());
        }
        return 0;
    }
    if (verb == "update") {
        std::vector<std::pair<std::string, std::string>> samples;
        for (const std::string &arg : args) {
            const std::size_t eq = arg.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "query update: expected LABEL=TEXT, "
                             "got '%s'\n",
                             arg.c_str());
                return 2;
            }
            samples.emplace_back(arg.substr(0, eq),
                                 arg.substr(eq + 1));
        }
        if (samples.empty()) {
            std::fprintf(stderr, "query update: need LABEL=TEXT "
                                 "arguments\n");
            return 2;
        }
        const UpdateReply reply = client.update(
            assimilate ? kAssimilate : kLabeled, samples, threshold);
        std::printf(
            "applied %u samples, %llu classes pending swap\n",
            reply.applied,
            static_cast<unsigned long long>(reply.pendingClasses));
        return 0;
    }
    if (verb == "swap") {
        const SwapReply reply = client.swap();
        std::printf("published snapshot %llu (build %.1f us, "
                    "swap %.1f us)\n",
                    static_cast<unsigned long long>(reply.sequence),
                    reply.buildUs, reply.swapUs);
        return 0;
    }
    if (verb == "stats") {
        std::printf("%s\n", client.stats().c_str());
        return 0;
    }
    if (verb == "trace") {
        std::printf("%s\n", client.traceJson().c_str());
        return 0;
    }
    if (verb == "shutdown") {
        client.shutdownServer();
        std::printf("server shutting down\n");
        return 0;
    }
    std::fprintf(stderr, "query: unknown verb '%s'\n", verb.c_str());
    return 2;
}

} // namespace hdham::serve

/**
 * @file
 * Standalone resident query server: `hdham_server --model PATH
 * (--socket PATH | --port N) ...`. Thin argv adapter over
 * serve::runServeCommand -- identical flags and behavior to
 * `hdham serve`.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "serve_commands.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        return hdham::serve::runServeCommand(std::move(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hdham_server: %s\n", e.what());
        return dynamic_cast<const hdham::cli::UsageError *>(&e) ? 2 : 1;
    }
}

/**
 * @file
 * The serve and query verbs of the command-line tools.
 *
 * `hdham serve` / `hdham query` (tools/hdham_cli.cc) and the
 * standalone hdham_server binary (tools/hdham_server.cc) are thin
 * argv adapters over these two functions, so both front ends parse
 * the same flags and run the same code.
 */

#ifndef HDHAM_TOOLS_SERVE_COMMANDS_HH
#define HDHAM_TOOLS_SERVE_COMMANDS_HH

#include <string>
#include <vector>

namespace hdham::serve
{

/**
 * Run a resident server until a Shutdown request:
 *
 *   serve --model PATH (--socket PATH | --port N) [--threads N]
 *         [--kernel K] [--no-verify] [--trace]
 *
 * A model in a legacy sliced or sharded layout is served from the
 * row-major copy the loader makes (`hdham save` migrates the file).
 *
 * Returns a process exit code (0 ok, 2 usage, also for any argument
 * left over). Throws on runtime errors, and cli::UsageError on a
 * numeric flag that does not parse.
 */
int runServeCommand(std::vector<std::string> args);

/**
 * Issue one request to a running server:
 *
 *   query (--socket PATH | --port N) ping
 *   query ... classify TEXT...
 *   query ... update [--assimilate] [--threshold BITS] LABEL=TEXT...
 *   query ... swap
 *   query ... stats
 *   query ... trace
 *   query ... shutdown
 *
 * Returns a process exit code (0 ok, 2 usage). Throws on runtime
 * errors, and cli::UsageError on a numeric flag that does not parse.
 */
int runQueryCommand(std::vector<std::string> args);

} // namespace hdham::serve

#endif // HDHAM_TOOLS_SERVE_COMMANDS_HH

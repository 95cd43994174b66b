/**
 * @file
 * The serve and query verbs of the hdham command-line tool.
 *
 * `hdham serve` and `hdham query` (tools/hdham_cli.cc) hand their
 * arguments to these two functions.
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
 *   serve --model PATH (--socket PATH | --port N) [--no-verify]
 *         [--trace]
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

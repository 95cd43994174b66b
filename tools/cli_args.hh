/**
 * @file
 * The argv helpers every hdham command-line verb parses its flags
 * with (tools/hdham_cli.cc, tools/serve_commands.cc).
 *
 * Flags are consumed from the argument list as they are read, so
 * whatever is left afterwards is positional. A numeric flag whose
 * value does not parse completely throws UsageError naming the flag,
 * and so does anything left over that starts with `--`
 * (rejectUnknownFlags); the front ends report it and exit 2.
 */

#ifndef HDHAM_TOOLS_CLI_ARGS_HH
#define HDHAM_TOOLS_CLI_ARGS_HH

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace hdham::cli
{

/** A malformed command line. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Pull `--flag value` or `--flag=value` out of the argument list. */
inline std::string
option(std::vector<std::string> &args, const std::string &flag,
       const std::string &fallback)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == flag && i + 1 < args.size()) {
            const std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            return value;
        }
        if (args[i].size() > flag.size() + 1 &&
            args[i].compare(0, flag.size(), flag) == 0 &&
            args[i][flag.size()] == '=') {
            const std::string value = args[i].substr(flag.size() + 1);
            args.erase(args.begin() + static_cast<long>(i));
            return value;
        }
    }
    return fallback;
}

/**
 * @p text as a T. @throws UsageError naming @p flag unless all of it
 * parses and the value fits T.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        throw UsageError(flag + " expects a number, got '" + text +
                         "'");
    return value;
}

/** The value of numeric flag @p flag, or @p fallback when absent. */
template <typename T = std::size_t>
T
numericOption(std::vector<std::string> &args, const std::string &flag,
              std::type_identity_t<T> fallback)
{
    return parseNumber<T>(flag,
                          option(args, flag, std::to_string(fallback)));
}

/** Consume a valueless `--flag`; true when it was present. */
inline bool
boolOption(std::vector<std::string> &args, const std::string &flag)
{
    const auto it = std::find(args.begin(), args.end(), flag);
    if (it == args.end())
        return false;
    args.erase(it);
    return true;
}

/**
 * Call once a verb has consumed every flag it takes: whatever is left
 * must not look like a flag, so a misspelt or retired flag fails
 * before any work starts instead of being ignored or read as text.
 * @throws UsageError naming the first leftover `--` argument.
 */
inline void
rejectUnknownFlags(const std::vector<std::string> &args)
{
    for (const std::string &arg : args) {
        if (arg.rfind("--", 0) == 0)
            throw UsageError(arg + ": unknown flag, or a flag "
                                   "without its value");
    }
}

} // namespace hdham::cli

#endif // HDHAM_TOOLS_CLI_ARGS_HH

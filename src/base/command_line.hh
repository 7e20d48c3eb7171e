/**
 * @file
 * The command-line parser of the bench and example binaries.
 */

#ifndef DRS_BASE_COMMAND_LINE_HH
#define DRS_BASE_COMMAND_LINE_HH

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace deeprecsys {

/**
 * A binary's command line: switches, options that take a value, and
 * positional arguments bound in the order they are declared (each
 * optional; a missing one keeps its default). parse() prints usage
 * and exits 0 on --help; an unknown flag, an option without its
 * value, a bad number, a value outside a positional's choices, or one
 * positional too many exits 2 with the usage on stderr before the
 * binary runs or writes anything. A value may not start with '-', so
 * "--trace --smoke" is a missing value, not a file named "--smoke".
 *
 *     bool smoke = false;
 *     std::string json_path;
 *     CommandLine("fig99", "what the bench studies")
 *         .flag("--smoke", smoke, "a short run for CI")
 *         .positional("JSON", json_path, "write the table as JSON")
 *         .parse(argc, argv);
 */
class CommandLine
{
  public:
    CommandLine(std::string name, std::string summary)
        : name_(std::move(name)), summary_(std::move(summary))
    {
    }

    /** A switch: @p out becomes true when @p flag is given. */
    CommandLine&
    flag(const char* flag, bool& out, const char* help)
    {
        args_.push_back({.flag = flag, .help = help, .on = &out});
        return *this;
    }

    /** @p flag VALUE: a string, e.g. an output path. */
    CommandLine&
    option(const char* flag, std::string& out, const char* metavar,
           const char* help)
    {
        args_.push_back(
            {.flag = flag, .metavar = metavar, .help = help, .text = &out});
        return *this;
    }

    /** @p flag N: a decimal integer in [0, @p max]. */
    CommandLine&
    number(const char* flag, size_t& out, size_t max, const char* metavar,
           const char* help)
    {
        args_.push_back({.flag = flag, .metavar = metavar, .help = help,
                         .count = &out, .max = max});
        return *this;
    }

    /**
     * The next positional argument, a string; when @p choices is not
     * empty the value must be one of them.
     */
    CommandLine&
    positional(const char* metavar, std::string& out, const char* help,
               std::vector<std::string> choices = {})
    {
        positionals_.push_back({.metavar = metavar, .help = help,
                                .text = &out,
                                .choices = std::move(choices)});
        return *this;
    }

    /** The next positional argument, a positive finite number. */
    CommandLine&
    positional(const char* metavar, double& out, const char* help)
    {
        positionals_.push_back(
            {.metavar = metavar, .help = help, .real = &out});
        return *this;
    }

    void
    parse(int argc, char** argv) const
    {
        size_t positionals_seen = 0;
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            if (arg == "--help") {
                printUsage(std::cout);
                std::exit(0);
            }
            if (arg.empty() || arg[0] != '-') {
                if (positionals_seen == positionals_.size())
                    fail("unexpected argument '" + arg + "'");
                setPositional(positionals_[positionals_seen++], arg);
                continue;
            }
            const Arg* spec = nullptr;
            for (const Arg& a : args_)
                if (arg == a.flag)
                    spec = &a;
            if (!spec)
                fail("unknown option '" + arg + "'");
            if (spec->on) {
                *spec->on = true;
                continue;
            }
            if (i + 1 >= argc || argv[i + 1][0] == '-' ||
                argv[i + 1][0] == '\0')
                fail("option '" + arg + "' needs a value (" +
                     spec->metavar + ")");
            const std::string value = argv[++i];
            if (spec->text) {
                *spec->text = value;
                continue;
            }
            size_t n = 0;
            const char* end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, n);
            if (ec != std::errc() || ptr != end || n > spec->max)
                fail("option '" + arg + "' needs an integer in [0, " +
                     std::to_string(spec->max) + "], not '" + value + "'");
            *spec->count = n;
        }
    }

  private:
    /**
     * One argument; a flag sets exactly one of on, text and count, a
     * positional exactly one of text and real.
     */
    struct Arg
    {
        const char* flag = nullptr;       ///< nullptr on a positional
        const char* metavar = nullptr;    ///< nullptr on a switch
        const char* help = nullptr;
        bool* on = nullptr;
        std::string* text = nullptr;
        size_t* count = nullptr;
        size_t max = 0;                   ///< largest accepted count
        double* real = nullptr;
        std::vector<std::string> choices = {};  ///< empty: any text
    };

    void
    setPositional(const Arg& spec, const std::string& value) const
    {
        if (spec.real) {
            double x = 0.0;
            const char* end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, x);
            if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
                x <= 0.0)
                fail(std::string(spec.metavar) +
                     " needs a positive number, not '" + value + "'");
            *spec.real = x;
            return;
        }
        bool allowed = spec.choices.empty();
        for (const std::string& c : spec.choices)
            allowed = allowed || c == value;
        if (!allowed)
            fail("unknown " + std::string(spec.metavar) + " '" + value +
                 "'");
        *spec.text = value;
    }

    void
    printUsage(std::ostream& os) const
    {
        os << "usage: " << name_ << " [--help]";
        for (const Arg& a : args_) {
            os << " [" << a.flag;
            if (a.metavar)
                os << " " << a.metavar;
            os << "]";
        }
        for (const Arg& a : positionals_)
            os << " [" << a.metavar;
        os << std::string(positionals_.size(), ']');
        os << "\n\n" << summary_ << "\n\n";
        os << "  --help  print this message and exit\n";
        for (const Arg& a : args_) {
            os << "  " << a.flag;
            if (a.metavar)
                os << " " << a.metavar;
            os << "  " << a.help << "\n";
        }
        for (const Arg& a : positionals_) {
            os << "  " << a.metavar << "  " << a.help << "\n";
            if (!a.choices.empty()) {
                os << "      one of:";
                for (const std::string& c : a.choices)
                    os << " " << c;
                os << "\n";
            }
        }
    }

    [[noreturn]] void
    fail(const std::string& message) const
    {
        std::cerr << name_ << ": " << message << "\n";
        printUsage(std::cerr);
        std::exit(2);
    }

    std::string name_;
    std::string summary_;
    std::vector<Arg> args_;
    std::vector<Arg> positionals_;
};

} // namespace deeprecsys

#endif // DRS_BASE_COMMAND_LINE_HH

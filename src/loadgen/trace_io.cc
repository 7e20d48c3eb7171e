#include "trace_io.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/logging.hh"

namespace deeprecsys {

namespace {
constexpr const char* traceMagic = "deeprecsys-trace";
constexpr const char* traceVersion = "v1";

// Queries reserved up front at most: the header's count is untrusted
// until the body bears it out, and the vector grows past this as
// queries actually parse.
constexpr size_t maxReservedQueries = size_t{1} << 20;
} // namespace

void
writeTrace(std::ostream& os, const QueryTrace& trace)
{
    os << traceMagic << " " << traceVersion << " " << trace.size()
       << "\n";
    os.precision(17);
    for (const Query& q : trace)
        os << q.id << " " << q.arrivalSeconds << " " << q.size << "\n";
}

void
saveTrace(const std::string& path, const QueryTrace& trace)
{
    std::ofstream out(path);
    if (!out)
        drs_fatal("cannot open trace file for writing: ", path);
    writeTrace(out, trace);
    if (!out)
        drs_fatal("error while writing trace file: ", path);
}

QueryTrace
readTrace(std::istream& is)
{
    std::string magic;
    std::string version;
    size_t count = 0;
    if (!(is >> magic >> version >> count))
        drs_fatal("trace stream has no header");
    if (magic != traceMagic)
        drs_fatal("not a deeprecsys trace (bad magic: ", magic, ")");
    if (version != traceVersion)
        drs_fatal("unsupported trace version: ", version);

    QueryTrace trace;
    trace.reserve(std::min(count, maxReservedQueries));
    double prev_arrival = 0.0;
    for (size_t i = 0; i < count; i++) {
        Query q;
        // The id is unsigned: refuse a sign rather than let the stream
        // wrap "-1" into 2^64 - 1. Read the size signed, so a negative
        // size is rejected rather than wrapped into a huge unsigned one.
        if ((is >> std::ws).peek() == '-')
            drs_fatal("trace query ", i, " has a negative id");
        int64_t size = 0;
        if (!(is >> q.id >> q.arrivalSeconds >> size))
            drs_fatal("trace truncated at query ", i, " of ", count);
        if (!std::isfinite(q.arrivalSeconds) || q.arrivalSeconds < 0.0)
            drs_fatal("trace query ", i, " has arrival ", q.arrivalSeconds,
                      " s; arrivals must be finite and >= 0");
        if (size < 1 || size > std::numeric_limits<uint32_t>::max())
            drs_fatal("trace query ", i, " has size ", size,
                      " outside [1, ", std::numeric_limits<uint32_t>::max(),
                      "]");
        q.size = static_cast<uint32_t>(size);
        if (q.arrivalSeconds < prev_arrival)
            drs_fatal("trace arrivals not sorted at query ", i);
        prev_arrival = q.arrivalSeconds;
        trace.push_back(q);
    }
    return trace;
}

QueryTrace
loadTrace(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        drs_fatal("cannot open trace file: ", path);
    return readTrace(in);
}

} // namespace deeprecsys

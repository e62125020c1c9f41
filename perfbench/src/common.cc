#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty()) {
        std::fprintf(stderr, "perfbench: median of no samples\n");
        std::exit(1);
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
repetitionNote(const std::vector<double> &rates)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu timed repetitions, rate min %.4g median %.4g "
                  "max %.4g per s",
                  rates.size(), *std::min_element(rates.begin(), rates.end()),
                  median(rates),
                  *std::max_element(rates.begin(), rates.end()));
    return buf;
}

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--size full|tiny] [--expect HEX]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || *s == '-')
        usage(what);
    return v;
}

/** CPU brand string from cpuid, or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

/** Keeps referenceSpeed()'s loop from being optimized away. */
volatile std::uint64_t referenceSink = 0;

/** CPUs this process may run on (what nproc prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** JSON string literal body (quotes and backslashes escaped). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *val = argv[++i];
        if (flag == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseU64(val, "bad --seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds =
                static_cast<double>(parseU64(val, "bad --seconds"));
            have_seconds = a.seconds >= 1.0;
        } else if (flag == "--trace") {
            const std::string v = val;
            if (v != "0" && v != "1")
                usage("bad --trace");
            a.trace = v == "1";
            have_trace = true;
        } else if (flag == "--size") {
            const std::string v = val;
            if (v != "full" && v != "tiny")
                usage("bad --size");
            a.size = v == "tiny" ? Size::Tiny : Size::Full;
        } else if (flag == "--expect") {
            a.expectDigest = val;
        } else {
            usage("unknown flag");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (>= 1) and --trace are "
              "required");
    if (!isServingWorkload(a.workload) && a.workload != "fig8-cold")
        usage("unknown workload");
    return a;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(_h));
    return buf;
}

unsigned
parallelWorkers()
{
    return std::min(2u, usableCpus());
}

double
referenceSpeed()
{
    constexpr std::size_t kWords = (1u << 20) / sizeof(std::uint64_t);
    constexpr std::uint64_t kIters = 1u << 20;
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kWords);
        std::uint64_t x = 1;
        for (auto &w : t) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            w = x;
        }
        return t;
    }();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= table[x % kWords];
        x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ull;
        if (x & 1)
            x += i;
    }
    const double wall = secondsSince(t0);
    referenceSink = x;
    return static_cast<double>(kIters) / wall;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printHostFacts(const Args &args, const Report &report)
{
    std::printf(
        "{\"host\": {\"cpu_model\": \"%s\", \"nproc\": %u, "
        "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
        "\"flags\": \"%s\", \"compiler\": \"%s\", "
        "\"workers_used\": %u, \"reference_loop_per_s\": %.4g}, "
        "\"workload\": \"%s\", \"seed\": %llu, "
        "\"trace\": %d, \"size\": \"%s\", \"repetitions\": %zu, "
        "\"digest\": \"%s\", \"expected_digest\": \"%s\"}\n",
        jsonEscape(cpuModel()).c_str(), usableCpus(),
        std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
        PERFBENCH_FLAGS, PERFBENCH_COMPILER, report.workers,
        report.referenceSpeed, args.workload.c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        args.size == Size::Tiny ? "tiny" : "full", report.repetitions,
        report.digest.c_str(), args.expectDigest.c_str());
}

void
printResult(const Report &report)
{
    for (const std::string &n : report.notes)
        std::printf("# %s\n", n.c_str());
    for (const std::string &e : report.errors)
        std::printf("# output check failed: %s\n", e.c_str());
    for (const Metric &m : report.metrics)
        std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string line = "{\"correct\": ";
    line += report.errors.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        // Non-finite values are not JSON; main() has already failed
        // the output check of a run that produced one.
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

} // namespace perfbench

// efld_bench: one run of one end-to-end benchmark workload.
//
//   efld_bench --workload W [--seed S] [--seconds X] [--traced] [--out DIR]
//   efld_bench --workload W [--seed S] [--seconds X] --dump-traffic
//
// Generates the workload's traffic from (W, S), builds the deployment,
// drives the load for about X seconds (default 15), checks every output, and
// prints one row per metric (`W metric value unit n=<samples>`). Writes the
// record to DIR/W.json (DIR/W.traced.json and DIR/W.trace.json with
// --traced, which also switches on the program's profiler and trace ring
// and runs the per-layer probes); DIR defaults to the executable's own
// directory. Exits 1 when a correctness check fails, 2 on bad arguments or
// an error.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "traffic.hpp"
#include "workloads.hpp"

using namespace efld::bench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool traced = false;
    bool dump_traffic = false;
    std::string out;
};

// The directory holding this executable (a build directory), "." if unknown.
std::string exe_dir() {
    std::error_code ec;
    const std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(".") : exe.parent_path().string();
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            a.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            a.seconds = std::stod(value());
        } else if (arg == "--out") {
            a.out = value();
        } else if (arg == "--traced") {
            a.traced = true;
        } else if (arg == "--dump-traffic") {
            a.dump_traffic = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (a.out.empty()) a.out = exe_dir();
    if (!is_workload(a.workload)) {
        throw std::invalid_argument("--workload must be one of decode-long, chat, "
                                    "shared-prefix, socket-interactive, kv260-twin");
    }
    if (!(a.seconds > 0.0 && a.seconds <= 60.0)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
    }
    return a;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";  // a failed request's latency
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// Peak resident set (VmHWM) in MiB; 0 without procfs.
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string record_json(const Args& a, const Report& rep) {
    std::ostringstream o;
    o << "{\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
      << ",\"seconds\":" << json_number(a.seconds)
      << ",\"traced\":" << (a.traced ? "true" : "false") << ",\"fingerprint\":{"
      << "\"compiler\":" << json_string(EFLD_BENCH_COMPILER)
      << ",\"build_type\":" << json_string(EFLD_BENCH_BUILD_TYPE)
      << ",\"native_arch\":" << (EFLD_BENCH_NATIVE_ARCH ? "true" : "false")
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << json_string(cpu_model()) << "}"
      << ",\"correct\":" << (rep.correct() ? "true" : "false")
      << ",\"attempted\":" << rep.attempted << ",\"failed\":" << rep.failed
      << ",\"checks\":{";
    bool first = true;
    for (const Check& c : rep.checks()) {
        o << (first ? "" : ",") << json_string(c.name) << ":" << (c.ok ? "true" : "false");
        first = false;
    }
    o << "},\"metrics\":{";
    first = true;
    for (const Metric& m : rep.metrics()) {
        o << (first ? "" : ",") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
          << ",\"unit\":" << json_string(m.unit) << ",\"n\":" << m.n
          << (m.beyond ? ",\"beyond\":" + std::to_string(*m.beyond) : "")
          << ",\"layer\":" << (m.layer ? "true" : "false") << "}";
        first = false;
    }
    o << "}}\n";
    return o.str();
}

void write_file(const std::string& path, const std::string& body) {
    std::ofstream f(path, std::ios::binary);
    f << body;
    if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse(argc, argv);
        const Traffic traffic = make_traffic(a.workload, a.seed, a.seconds);
        if (a.dump_traffic) {
            std::fputs(dump(traffic).c_str(), stdout);
            return 0;
        }
        RunResult run = run_workload(traffic, RunOptions{a.seconds, a.traced});
        Report& rep = run.report;
        rep.e2e("rss_mb", peak_rss_mib(), "MiB");
        rep.layer("loadgen.shared_prompt_frac", shared_prompt_frac(traffic), "ratio",
                  traffic.requests.size());

        for (const Metric& m : rep.metrics()) {
            std::printf("%s %s %.6g %s n=%zu", a.workload.c_str(), m.name.c_str(), m.value,
                        m.unit.c_str(), m.n);
            if (m.beyond) std::printf(" beyond=%zu", *m.beyond);
            std::printf("\n");
        }
        for (const Check& c : rep.checks()) {
            std::printf("%s check %s %s\n", a.workload.c_str(), c.name.c_str(),
                        c.ok ? "ok" : "FAIL");
        }
        std::printf("%s attempted %zu failed %zu correct %s\n", a.workload.c_str(),
                    rep.attempted, rep.failed, rep.correct() ? "yes" : "no");

        const std::string base = a.out + "/" + a.workload + (a.traced ? ".traced" : "");
        write_file(base + ".json", record_json(a, rep));
        if (a.traced) write_file(a.out + "/" + a.workload + ".trace.json", run.trace_json);
        return rep.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "efld_bench: %s\n", e.what());
        return 2;
    }
}

// cake_trace: run one GEMM under the src/obs tracer and explain where the
// time went, from a single command.
//
// Runs a chosen executor (serial / pipelined CB-block, or GOTO) on a
// Table-2 machine preset and shape, records every work-item span into the
// per-worker ring buffers, then:
//   * writes a Perfetto/chrome://tracing JSON trace (--out),
//   * prints a self-profile: per-worker phase seconds, top spans, a
//     barrier-wait stall table, and an ASCII overlap timeline,
//   * cross-checks the trace against CakeStats: per-worker
//     pack/compute span totals divided by p must agree with the
//     stats' phase seconds (the executors time the same windows).
//
// Usage:
//   cake_trace --preset intel-i9 --shape square --exec pipelined
//   cake_trace --preset amd --shape 2048x2048x64 --exec serial --f64
//   cake_trace --preset host --shape 512x1024x1024 --i8 --check
//   cake_trace --exec goto --out goto.json --metrics metrics.json
//   cake_trace --preset intel-i9 --shape square --exec pipelined --check
//
// Flags:
//   --preset  intel-i9|intel|amd|arm|host   (default intel-i9)
//   --shape   square|skewed|panel|MxNxK     (default square = 1024^3)
//   --exec    serial|pipelined|goto         (default pipelined)
//   --p N         worker count (default: host cores)
//   --f64         double precision
//   --i8          u8 x s8 -> s32 through CakeGemmInt8 (CAKE execs only)
//   --capacity N  events per worker ring (default 65536)
//   --out FILE    Perfetto JSON path (default cake_trace.json)
//   --metrics FILE  also write the flat metrics JSON
//   --check       exit nonzero unless spans > 0, drops == 0 and the
//                 emitted JSON validates (the CI gate)
//
// With -DCAKE_TRACE_DISABLED=ON the tool still builds; it reports that
// tracing is compiled out and exits 2.
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/trace.hpp"

#if !CAKE_OBS_ENABLED

int main()
{
    std::cerr << "cake_trace: tracing is compiled out in this build "
                 "(CAKE_TRACE_DISABLED); reconfigure without "
                 "-DCAKE_TRACE_DISABLED=ON to use this tool.\n";
    return 2;
}

#else  // CAKE_OBS_ENABLED

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "machine/machine.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "threading/thread_pool.hpp"

namespace {

using cake::index_t;

struct Options {
    std::string preset = "intel-i9";
    std::string shape_name = "square";
    cake::GemmShape shape{1024, 1024, 1024};
    std::string exec = "pipelined";
    int p = 0;  // 0 = host cores
    bool f64 = false;
    bool i8 = false;
    std::size_t capacity = 0;  // 0 = tracer default
    std::string out = "cake_trace.json";
    std::string metrics_out;
    bool check = false;
};

[[noreturn]] void usage_error(const std::string& msg)
{
    std::cerr
        << "cake_trace: " << msg << "\n"
        << "usage: cake_trace [--preset intel-i9|intel|amd|arm|host]\n"
        << "                  [--shape square|skewed|panel|MxNxK]\n"
        << "                  [--exec serial|pipelined|goto] [--p N]\n"
        << "                  [--f64 | --i8] [--capacity N] [--out FILE]\n"
        << "                  [--metrics FILE] [--check]\n";
    std::exit(2);
}

index_t parse_index(const std::string& value, const char* flag)
{
    try {
        std::size_t pos = 0;
        const long long v = std::stoll(value, &pos);
        if (pos != value.size() || v < 1) throw std::invalid_argument(value);
        return static_cast<index_t>(v);
    } catch (const std::exception&) {
        usage_error(std::string(flag) + " expects a positive integer, got '"
                    + value + "'");
    }
}

cake::GemmShape parse_shape(const std::string& value)
{
    if (value == "square") return {1024, 1024, 1024};
    if (value == "skewed") return {2048, 2048, 64};
    if (value == "panel") return {4096, 256, 256};
    const std::size_t x1 = value.find('x');
    const std::size_t x2 = value.find('x', x1 + 1);
    if (x1 == std::string::npos || x2 == std::string::npos) {
        usage_error("--shape expects square|skewed|panel|MxNxK, got '"
                    + value + "'");
    }
    cake::GemmShape s;
    s.m = parse_index(value.substr(0, x1), "--shape");
    s.n = parse_index(value.substr(x1 + 1, x2 - x1 - 1), "--shape");
    s.k = parse_index(value.substr(x2 + 1), "--shape");
    return s;
}

Options parse_args(int argc, char** argv)
{
    Options opt;
    auto next = [&](int& i, const char* flag) -> std::string {
        if (i + 1 >= argc) {
            usage_error(std::string(flag) + " requires a value");
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--preset") {
            opt.preset = next(i, "--preset");
        } else if (arg == "--shape") {
            opt.shape_name = next(i, "--shape");
            opt.shape = parse_shape(opt.shape_name);
        } else if (arg == "--exec") {
            opt.exec = next(i, "--exec");
            if (opt.exec != "serial" && opt.exec != "pipelined"
                && opt.exec != "goto") {
                usage_error("--exec expects serial|pipelined|goto");
            }
        } else if (arg == "--p") {
            opt.p = static_cast<int>(parse_index(next(i, "--p"), "--p"));
        } else if (arg == "--f64") {
            opt.f64 = true;
        } else if (arg == "--i8") {
            opt.i8 = true;
        } else if (arg == "--capacity") {
            opt.capacity = static_cast<std::size_t>(
                parse_index(next(i, "--capacity"), "--capacity"));
        } else if (arg == "--out") {
            opt.out = next(i, "--out");
        } else if (arg == "--metrics") {
            opt.metrics_out = next(i, "--metrics");
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--help" || arg == "-h") {
            usage_error("help requested");
        } else {
            usage_error("unknown argument '" + arg + "'");
        }
    }
    if (opt.i8 && opt.f64) usage_error("--i8 and --f64 are exclusive");
    if (opt.i8 && opt.exec == "goto") {
        usage_error("--i8 requires a CAKE exec (serial|pipelined)");
    }
    return opt;
}

/// "intel-i9" is the Table-2 spelling; machine_by_name speaks "intel".
std::string preset_alias(const std::string& name)
{
    if (name == "intel-i9" || name == "intel-i9-10900k") return "intel";
    if (name == "amd-5950x") return "amd";
    if (name == "arm-a53") return "arm";
    return name;
}

/// Phase seconds as CakeStats reports them vs as the trace recorded them.
struct PhaseAgreement {
    const char* phase;
    double stats_s;
    double trace_s;  ///< per-worker span total / p

    [[nodiscard]] double rel_err() const
    {
        const double denom = std::max(std::abs(stats_s), 1e-12);
        return std::abs(trace_s - stats_s) / denom;
    }
};

cake::CakeOptions cake_options(const Options& opt,
                               const cake::MachineSpec& machine, int p)
{
    cake::CakeOptions copts;
    copts.p = p;
    copts.machine = machine;
    copts.exec = opt.exec == "serial" ? cake::CakeExec::kSerial
                                      : cake::CakeExec::kPipelined;
    return copts;
}

/// Trace one `multiply` after an untraced warm-up and report on it. Every
/// precision shares this path; `stats` is null for GOTO.
int trace_and_report(const Options& opt, int p, cake::ThreadPool& pool,
                     const std::function<void()>& multiply,
                     const cake::CakeStats* stats, const char* dtype)
{
    const cake::GemmShape& s = opt.shape;
    // Warm-up untraced: spins up the pool, faults in the matrices and
    // sizes the pack buffers, so the traced run profiles steady state.
    multiply();

    cake::obs::reset();
    cake::obs::metrics_reset();
    cake::obs::enable(opt.capacity);
    // Pre-register every worker's ring: a thread's first event otherwise
    // allocates the ring inside whatever span it lands in.
    cake::obs::ensure_thread_ring();
    pool.run(p, [](int) { cake::obs::ensure_thread_ring(); });
    multiply();
    cake::obs::disable();
    cake::obs::metrics_disable();

    const cake::obs::TraceDump dump = cake::obs::collect();
    const cake::obs::ProfileReport report = cake::obs::profile(dump);

    std::cout << "cake_trace: preset=" << opt.preset << " shape=" << s.m
              << "x" << s.n << "x" << s.k << " exec=" << opt.exec
              << " p=" << p << " " << dtype << "\n"
              << "events recorded: " << report.total_events
              << ", dropped: " << report.total_dropped
              << ", ring capacity: " << cake::obs::ring_capacity()
              << " events/thread\n\n";

    std::cout << "--- per-worker phase seconds ---\n";
    cake::obs::worker_table(report).print(std::cout);
    std::cout << "\n--- top spans ---\n";
    cake::obs::span_table(report).print(std::cout);
    std::cout << "\n--- barrier-wait stall attribution ---\n";
    cake::obs::stall_table(report).print(std::cout);
    std::cout << "\n--- overlap timeline ---\n"
              << cake::obs::overlap_timeline(dump) << "\n";

    const std::vector<cake::obs::MetricSnapshot> snapshots =
        cake::obs::metrics_snapshot();
    std::cout << "--- metrics ---\n";
    cake::obs::metrics_table(snapshots).print(std::cout);

    // Trace <-> stats cross-check. At both lookaheads the CB executor's
    // CakeStats phase seconds are aggregate per-worker busy time / p, and
    // the spans wrap the same work-item windows, so the two must agree
    // closely. GOTO's stats are wall-phase times (p workers run
    // concurrently inside each phase), so spans/p only match when worker
    // busy time is balanced. Printed for every executor; enforced for
    // CAKE.
    bool agree = true;
    if (stats != nullptr) {
        const cake::CakeStats& st = *stats;
        const int workers = std::max(p, 1);
        const PhaseAgreement rows[] = {
            {"pack", st.pack_seconds,
             report.phase_total_s(cake::obs::Phase::kPack) / workers},
            {"compute", st.compute_seconds,
             report.phase_total_s(cake::obs::Phase::kCompute) / workers},
        };
        cake::Table cmp({"phase", "stats_s", "trace_s/p", "rel_err"});
        for (const PhaseAgreement& row : rows) {
            cmp.add_row({row.phase, cake::format_number(row.stats_s, 6),
                         cake::format_number(row.trace_s, 6),
                         cake::format_number(row.rel_err(), 4)});
            if (row.stats_s > 1e-4 && row.rel_err() > 0.05) {
                agree = false;
            }
        }
        std::cout << "\n--- CakeStats agreement (spans/p vs stats) ---\n";
        cmp.print(std::cout);
        std::cout << (agree ? "agreement: OK (<= 5% on phases > 0.1 ms)"
                            : "agreement: MISMATCH (> 5%)")
                  << "\n";
    }

    // Export: build the JSON once, validate it, then write it out.
    std::ostringstream json;
    cake::obs::write_perfetto_json(dump, json);
    std::string validate_error;
    const bool json_ok =
        cake::obs::validate_perfetto_json(json.str(), &validate_error);
    {
        std::ofstream f(opt.out);
        if (!f.good()) {
            std::cerr << "cake_trace: cannot write " << opt.out << "\n";
            return 1;
        }
        f << json.str();
    }
    std::cout << "\ntrace written: " << opt.out << " ("
              << (json_ok ? "valid" : "INVALID: " + validate_error)
              << ", load in ui.perfetto.dev or chrome://tracing)\n";
    if (!opt.metrics_out.empty()) {
        std::ofstream f(opt.metrics_out);
        if (!f.good()) {
            std::cerr << "cake_trace: cannot write " << opt.metrics_out
                      << "\n";
            return 1;
        }
        cake::obs::write_metrics_json(snapshots, f);
        std::cout << "metrics written: " << opt.metrics_out << "\n";
    }

    if (opt.check) {
        bool ok = true;
        if (report.total_events == 0) {
            std::cerr << "check FAILED: no spans recorded\n";
            ok = false;
        }
        if (report.total_dropped != 0) {
            std::cerr << "check FAILED: " << report.total_dropped
                      << " events dropped (raise --capacity)\n";
            ok = false;
        }
        if (!json_ok) {
            std::cerr << "check FAILED: invalid trace JSON: "
                      << validate_error << "\n";
            ok = false;
        }
        std::cout << "check: " << (ok ? "PASS" : "FAIL") << "\n";
        return ok ? 0 : 1;
    }
    return 0;
}

/// One templated driver so --f64 shares every code path.
template <typename T>
int run(const Options& opt)
{
    const cake::MachineSpec machine =
        cake::machine_by_name(preset_alias(opt.preset));
    const int p = opt.p > 0 ? opt.p : cake::host_machine().cores;
    cake::ThreadPool pool(p);
    cake::Rng rng(1);

    const cake::GemmShape& s = opt.shape;
    cake::MatrixT<T> a(s.m, s.k);
    cake::MatrixT<T> b(s.k, s.n);
    cake::MatrixT<T> out(s.m, s.n);
    a.fill_random(rng);
    b.fill_random(rng);

    const bool is_goto = opt.exec == "goto";
    cake::GotoOptions gopts;
    gopts.p = p;
    gopts.machine = machine;

    cake::CakeGemmT<T> cake_gemm(pool, cake_options(opt, machine, p));
    cake::GotoGemmT<T> goto_gemm(pool, gopts);
    auto multiply = [&]() {
        if (is_goto) {
            goto_gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
        } else {
            cake_gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
        }
    };
    return trace_and_report(opt, p, pool, multiply,
                            is_goto ? nullptr : &cake_gemm.stats(),
                            opt.f64 ? "f64" : "f32");
}

/// The int8 driver: u8 activations in [0, 127] (the public A range), s8
/// weights, s32 C.
int run_i8(const Options& opt)
{
    const cake::MachineSpec machine =
        cake::machine_by_name(preset_alias(opt.preset));
    const int p = opt.p > 0 ? opt.p : cake::host_machine().cores;
    cake::ThreadPool pool(p);
    cake::Rng rng(1);

    const cake::GemmShape& s = opt.shape;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<std::int32_t> out(static_cast<std::size_t>(s.m * s.n));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_below(128));
    for (auto& v : b) {
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);
    }

    cake::CakeGemmInt8 gemm(pool, cake_options(opt, machine, p));
    auto multiply = [&]() {
        gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n, s.m,
                      s.n, s.k);
    };
    return trace_and_report(opt, p, pool, multiply, &gemm.stats(), "i8");
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);
    try {
        if (opt.i8) return run_i8(opt);
        return opt.f64 ? run<double>(opt) : run<float>(opt);
    } catch (const std::exception& e) {
        std::cerr << "cake_trace: " << e.what() << "\n";
        return 1;
    }
}

#endif  // CAKE_OBS_ENABLED

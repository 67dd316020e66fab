// cake_perf: run one GEMM with the hardware counter layer armed and
// compare silicon against the model, from a single command.
//
// Every other checker in this tree (cake_audit, cake_verify, memsim,
// locality) tests the paper's Eq.-2 DRAM-traffic claim against models and
// simulators. This tool reads the machine: it arms src/obs/perf around a
// counted multiply, prints per-phase (pack/compute/barrier) counter
// tables and the counter-derived roofline operating point, and gates the
// divergence between measured LLC-miss bytes and the driver's predicted
// DRAM read bytes (the same figure the schedule IR and memsim prove
// byte-exact against Eq. 2).
//
// Usage:
//   cake_perf --preset intel-i9 --shape skewed --exec pipelined
//   cake_perf --shape 2048x2048x64 --p 4 --check
//   cake_perf --software            # live-path smoke where the PMU is gone
//
// Flags:
//   --preset  intel-i9|intel|amd|arm|host   (default host)
//   --shape   square|skewed|panel|MxNxK     (default skewed = 2048x2048x64,
//             the shallow-K Table-2 case where pack traffic dominates)
//   --exec    serial|pipelined              (default pipelined)
//   --p N         worker count (default: host cores)
//   --f64         double precision
//   --reps N      timed repetitions, min wall kept (default 3)
//   --tol X       --check divergence tolerance (default 0.5: hardware
//                 prefetchers make demand-miss bytes undershoot the model,
//                 so the gate is deliberately generous; see DESIGN.md)
//   --software    use software events (task-clock, page-faults, context
//                 switches) instead of the hardware group — exercises the
//                 live read path on PMU-less hosts; divergence is then
//                 unmeasurable and --check degrades to exit 2
//   --check       exit 1 unless counters measured and divergence <= tol
//
// Exit codes: 0 ok / check passed; 1 check failed; 2 counters denied or
// the layer is compiled out (graceful degradation — tables print "-").
#include <iostream>

#include "obs/perf.hpp"

#if !CAKE_PERF_ENABLED

int main()
{
    std::cerr << "cake_perf: the perf counter layer is compiled out in "
                 "this build (CAKE_TRACE_DISABLED or a non-Linux host); "
                 "reconfigure without that option to use this tool.\n";
    return 2;
}

#else  // CAKE_PERF_ENABLED

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "machine/machine.hpp"
#include "model/throughput.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "threading/thread_pool.hpp"

namespace {

using cake::index_t;

struct Options {
    std::string preset = "host";
    std::string shape_name = "skewed";
    cake::GemmShape shape{2048, 2048, 64};
    std::string exec = "pipelined";
    int p = 0;  // 0 = host cores
    bool f64 = false;
    int reps = 3;
    double tol = 0.5;
    bool software = false;
    bool check = false;
};

[[noreturn]] void usage_error(const std::string& msg)
{
    std::cerr << "cake_perf: " << msg << "\n"
              << "usage: cake_perf [--preset intel-i9|intel|amd|arm|host]\n"
              << "                 [--shape square|skewed|panel|MxNxK]\n"
              << "                 [--exec serial|pipelined] [--p N]\n"
              << "                 [--f64] [--reps N] [--tol X]\n"
              << "                 [--software] [--check]\n";
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
            if (opt.exec != "serial" && opt.exec != "pipelined") {
                usage_error("--exec expects serial|pipelined");
            }
        } else if (arg == "--p") {
            opt.p = static_cast<int>(parse_index(next(i, "--p"), "--p"));
        } else if (arg == "--f64") {
            opt.f64 = true;
        } else if (arg == "--reps") {
            opt.reps =
                static_cast<int>(parse_index(next(i, "--reps"), "--reps"));
        } else if (arg == "--tol") {
            try {
                opt.tol = std::stod(next(i, "--tol"));
            } catch (const std::exception&) {
                usage_error("--tol expects a number");
            }
        } else if (arg == "--software") {
            opt.software = true;
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--help" || arg == "-h") {
            usage_error("help requested");
        } else {
            usage_error("unknown argument '" + arg + "'");
        }
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

/// One templated driver so --f64 shares every code path.
template <typename T>
int run(const Options& opt)
{
    namespace perf = cake::obs::perf;

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

    cake::CakeOptions copts;
    copts.p = p;
    copts.machine = machine;
    copts.exec = opt.exec == "serial" ? cake::CakeExec::kSerial
                                      : cake::CakeExec::kPipelined;
    cake::CakeGemmT<T> gemm(pool, copts);
    auto multiply = [&] {
        gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n, s.m,
                      s.n, s.k);
    };

    // Warm-up + timed reps, all UNcounted: wall-clock numbers stay free of
    // counter-read overhead, and the one counted run that follows profiles
    // steady state.
    multiply();
    double best_s = 0;
    for (int rep = 0; rep < std::max(opt.reps, 1); ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        multiply();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (rep == 0 || dt.count() < best_s) best_s = dt.count();
    }

    // The counted run. Metrics armed too, so the divergence gauge and the
    // published obs.perf.* totals land in the same snapshot a bench or
    // test would read.
    perf::reset();
    cake::obs::metrics_enable();
    if (opt.software) {
        perf::enable(perf::software_counter_specs());
    } else {
        perf::enable();
    }
    const auto t0 = std::chrono::steady_clock::now();
    multiply();
    const std::chrono::duration<double> counted_dt =
        std::chrono::steady_clock::now() - t0;
    perf::disable();
    const perf::PerfDump dump = perf::collect();
    const cake::CakeStats stats = gemm.stats();

    std::cout << "cake_perf: preset=" << opt.preset << " shape=" << s.m
              << "x" << s.n << "x" << s.k << " exec=" << opt.exec
              << " p=" << p << (opt.f64 ? " f64" : " f32")
              << (opt.software ? " [software events]" : "") << "\n"
              << "counters: "
              << (dump.availability.usable
                      ? "ok (" + std::to_string(dump.availability.opened)
                            + "/" + std::to_string(dump.specs.size())
                            + " events opened)"
                      : "DENIED — " + dump.availability.reason)
              << "\n\n";

    // Per-phase and per-worker counter attribution: the same table shapes
    // cake_trace prints for seconds, here for counted events.
    cake::obs::ProfileReport report;
    report.perf = dump;
    std::cout << "--- per-phase counters (all workers) ---\n";
    cake::obs::perf_phase_table(report).print(std::cout);
    std::cout << "\n--- per-worker counter totals ---\n";
    cake::obs::perf_worker_table(report).print(std::cout);

    // Model vs silicon. Predicted reads: the driver's own Eq.-2
    // bookkeeping for the plan it executed (proved byte-exact against the
    // schedule IR and memsim elsewhere in the tree); the model row recomputes
    // the same figure from the standalone traffic walker as a cross-check.
    const cake::model::TrafficSummary model_traffic =
        cake::model::cake_traffic(s, stats.params);
    const double predicted =
        static_cast<double>(stats.dram_read_bytes);
    const perf::Divergence div = perf::dram_divergence(dump, predicted);
    perf::publish(dump);
    cake::obs::gauge_set(cake::obs::gauge("obs.perf.dram_divergence"),
                         div.divergence);
    cake::obs::metrics_disable();

    std::cout << "\n--- DRAM read traffic: measured vs predicted ---\n";
    cake::Table traffic({"source", "read MB", "vs predicted"});
    traffic.add_row({"driver Eq.-2 bookkeeping",
                     cake::format_number(predicted / 1e6, 4), "1.0"});
    traffic.add_row(
        {"model::cake_traffic",
         cake::format_number(
             static_cast<double>(model_traffic.dram_read_bytes) / 1e6, 4),
         cake::format_number(
             predicted > 0
                 ? static_cast<double>(model_traffic.dram_read_bytes)
                       / predicted
                 : 0,
             4)});
    traffic.add_row({"measured LLC-load-miss bytes",
                     div.measured
                         ? cake::format_number(div.measured_bytes / 1e6, 4)
                         : "-",
                     div.measured ? cake::format_number(div.ratio, 4) : "-"});
    traffic.print(std::cout);
    if (div.measured) {
        std::cout << "divergence |measured - predicted| / predicted = "
                  << cake::format_number(div.divergence, 4)
                  << " (prefetchers typically pull the measured demand-miss "
                     "bytes BELOW the model)\n";
    } else {
        std::cout << "divergence: unmeasurable ("
                  << (dump.availability.usable
                          ? "the LLC-load-miss event never scheduled"
                          : dump.availability.reason)
                  << ") — columns degrade to \"-\"\n";
    }

    std::cout << "\n--- roofline operating point ---\n";
    cake::obs::operating_point_table(
        report, s.flops(), best_s > 0 ? best_s : counted_dt.count(),
        predicted + static_cast<double>(stats.dram_write_bytes))
        .print(std::cout);
    std::cout << "(wall-clock from the uncounted reps: best of "
              << std::max(opt.reps, 1) << ", "
              << cake::format_number(best_s, 4) << " s)\n";

    if (opt.check) {
        if (!div.measured) {
            std::cout << "\ncheck: SKIPPED — counters denied or the miss "
                         "event never scheduled; exit 2 (degraded, not "
                         "failed)\n";
            return 2;
        }
        const bool ok = div.divergence <= opt.tol;
        std::cout << "\ncheck: " << (ok ? "PASS" : "FAIL") << " (divergence "
                  << cake::format_number(div.divergence, 4)
                  << (ok ? " <= " : " > ") << cake::format_number(opt.tol, 4)
                  << ")\n";
        return ok ? 0 : 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);
    try {
        return opt.f64 ? run<double>(opt) : run<float>(opt);
    } catch (const std::exception& e) {
        std::cerr << "cake_perf: " << e.what() << "\n";
        return 1;
    }
}

#endif  // CAKE_PERF_ENABLED

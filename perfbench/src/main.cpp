// perfbench_run: one run of one benchmark workload.
//
//   perfbench_run --workload <square|shallow-k|infer-mix> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run is cut into one-second epochs. Each epoch sets the workload up
// afresh (timed), then runs ops in a closed loop; every op's outputs are
// checked outside its timed interval. Figures come from the faster half of
// the epochs, so a host burst that slows whole seconds is left out.
//
// Untraced (--trace 0): prints the run record (machine fingerprint,
// kernels, plans, every figure) and, as the last line, the result object
// with the end-to-end metrics.
//
// Traced (--trace 1): the same epochs, alternating ops with and without
// the benchmark's spans, then the per-layer probes and the p = 1, 2, 4
// re-runs. The last line carries the per-layer metrics; the spans go to
// --trace-out as Chrome trace-event JSON.
//
// Exit codes: 0 = every checked output within its bound; 1 = an output
// check failed or the library threw; 2 = bad arguments or environment.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "check.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/registry.hpp"
#include "machine/fingerprint.hpp"
#include "pack/pack.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace pb = perfbench;
using cake::index_t;

namespace {

constexpr const char* kUsage =
    "usage: perfbench_run --workload <square|shallow-k|infer-mix> --seed <n> "
    "--seconds <s> --trace <0|1> [--trace-out <file>]\n";

/// Variables that change what the library plans or records; a run that
/// inherits one is not comparable with any other run.
constexpr std::array<const char*, 4> kRefusedEnv = {
    "CAKE_FORCE_ISA", "CAKE_TRACE", "CAKE_TRACE_CAPACITY", "CAKE_TUNE_CACHE"};

/// A run is cut into epochs of about this length, at least kMinEpochs.
constexpr double kEpochSeconds = 1.0;
constexpr int kMinEpochs = 4;
constexpr std::uint64_t kCheckStream = 0xC0FFEE5EEDULL;

struct Args {
    pb::WorkloadKind kind = pb::WorkloadKind::kSquare;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message)
{
    std::cerr << "perfbench_run: " << message << "\n" << kUsage;
    std::exit(2);
}

Args parse_args(int argc, char** argv)
{
    Args args;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage_error("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto kind = pb::parse_workload(value);
                if (!kind) usage_error("unknown workload '" + value + "'");
                args.kind = *kind;
                have[0] = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have[1] = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                if (!(args.seconds > 0 && args.seconds <= 600)) {
                    usage_error("--seconds must be in (0, 600]");
                }
                have[2] = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage_error("--trace is 0 or 1");
                args.trace = value == "1";
                have[3] = true;
            } else if (flag == "--trace-out") {
                args.trace_out = value;
            } else {
                usage_error("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value '" + value + "' for " + flag);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3])) {
        usage_error("--workload, --seed, --seconds and --trace are required");
    }
    return args;
}

/// Linear-interpolated quantile; NaN for an empty sample.
double quantile(std::vector<double> xs, double q)
{
    if (xs.empty()) return std::nan("");
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from)
{
    to.insert(to.end(), from.begin(), from.end());
}

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// The library's CakeStats summed over calls.
struct StatsTotals {
    double pack = 0, compute = 0, flush = 0, stall = 0, total = 0;
    double overlap_weighted = 0;  ///< overlap_efficiency x pack seconds
    double a_packs = 0, b_packs = 0, flushes = 0, blocks = 0;
    double dram_bytes = 0;

    void add(const cake::CakeStats& s)
    {
        pack += s.pack_seconds;
        compute += s.compute_seconds;
        flush += s.flush_seconds;
        stall += s.stall_seconds;
        total += s.total_seconds;
        overlap_weighted += s.overlap_efficiency * s.pack_seconds;
        a_packs += static_cast<double>(s.a_packs);
        b_packs += static_cast<double>(s.b_packs);
        flushes += static_cast<double>(s.c_flushes);
        blocks += static_cast<double>(s.blocks_executed);
        dram_bytes += static_cast<double>(s.dram_read_bytes + s.dram_write_bytes);
    }

    void merge(const StatsTotals& o)
    {
        pack += o.pack;
        compute += o.compute;
        flush += o.flush;
        stall += o.stall;
        total += o.total;
        overlap_weighted += o.overlap_weighted;
        a_packs += o.a_packs;
        b_packs += o.b_packs;
        flushes += o.flushes;
        blocks += o.blocks;
        dram_bytes += o.dram_bytes;
    }

    [[nodiscard]] double frac(double part) const
    {
        return total > 0 ? part / total : 0.0;
    }
};

/// Sum of ceil(chunk / tile) over `extent` cut into `block`-sized chunks.
double tiles_along(index_t extent, index_t block, index_t tile)
{
    double tiles = 0;
    for (index_t at = 0; at < extent; at += block) {
        tiles += static_cast<double>(
            cake::ceil_div(std::min(block, extent - at), tile));
    }
    return tiles;
}

/// Computed micro-kernel invocations of one call: every mr x nr tile of
/// every per-core mc x n_blk sub-block, once per kc slab.
double kernel_calls(const pb::CallSpec& call, const cake::CbBlockParams& pr)
{
    return tiles_along(call.m, pr.mc, pr.mr) * tiles_along(call.n, pr.n_blk, pr.nr)
        * static_cast<double>(cake::ceil_div(call.k, pr.k_blk));
}

/// Op times and library stats of a set of ops.
struct OpRecords {
    std::vector<double> plain_ms, traced_ms;  ///< op times without/with spans
    /// Per traced op: milliseconds spent in each call class.
    std::array<std::vector<double>, pb::kCallClasses> class_ms;
    StatsTotals totals;  ///< over every call of every op
    double kernel_calls = 0;
    std::vector<double> setup_s;

    [[nodiscard]] double median_ms() const
    {
        std::vector<double> all = plain_ms;
        append(all, traced_ms);
        return quantile(all, 0.5);
    }

    [[nodiscard]] double ops() const
    {
        return static_cast<double>(plain_ms.size() + traced_ms.size());
    }

    void merge(const OpRecords& o)
    {
        append(plain_ms, o.plain_ms);
        append(traced_ms, o.traced_ms);
        for (std::size_t c = 0; c < class_ms.size(); ++c) {
            append(class_ms[c], o.class_ms[c]);
        }
        totals.merge(o.totals);
        kernel_calls += o.kernel_calls;
        append(setup_s, o.setup_s);
    }
};

/// Everything the epochs of one run produced.
struct RunResult {
    std::vector<OpRecords> epochs;  ///< one entry per epoch
    OpRecords kept;                 ///< merged records of the faster half
    long attempted = 0, failed = 0;
    index_t checked = 0, bad = 0;  ///< sampled elements
    double worst = 0;              ///< max |err| / allowed over f32 samples
    double loop_s = 0;
    double steal_frac = 0;
    double invol_ctxsw = 0;
};

/// The library objects an epoch sets up; the last epoch's stay alive for
/// the probes. The runner is declared last so it is destroyed first.
struct Live {
    std::unique_ptr<cake::ThreadPool> pool;
    std::unique_ptr<pb::Runner> runner;
};

/// Run the epochs of one run: each sets the workload up afresh (timed),
/// then runs checked ops until its share of --seconds is up. With tracing,
/// every other op records an op span and a span per call.
RunResult run_epochs(const Args& args, pb::Inputs& in, int pool_size,
                     Live& live, pb::SpanRecorder& spans)
{
    const std::vector<pb::CallSpec> calls = pb::workload_calls(args.kind);
    pb::OrderStream orders(args.seed, calls.size());
    cake::Rng check_rng(args.seed ^ kCheckStream);
    const int epochs = std::max(
        kMinEpochs, static_cast<int>(std::lround(args.seconds / kEpochSeconds)));
    const double min_ops = args.trace ? 2 : 1;

    RunResult r;
    r.epochs.resize(static_cast<std::size_t>(epochs));
    const pb::HostSample host0 = pb::host_sample();
    const cake::Timer loop;
    for (int e = 0; e < epochs; ++e) {
        OpRecords& ep = r.epochs[static_cast<std::size_t>(e)];
        live.runner.reset();
        live.pool.reset();
        const cake::Timer setup;
        live.pool = std::make_unique<cake::ThreadPool>(pool_size);
        live.runner =
            std::make_unique<pb::Runner>(args.kind, in, *live.pool, pool_size);
        for (std::size_t i = 0; i < calls.size(); ++i) live.runner->call(i);
        ep.setup_s.push_back(setup.seconds());

        const double deadline = args.seconds * (e + 1) / epochs;
        while (loop.seconds() < deadline || ep.ops() < min_ops) {
            const std::vector<std::size_t> order = orders.next();
            std::vector<pb::Samples> samples;
            for (const pb::CallSpec& call : calls) {
                samples.push_back(pb::pick_samples(check_rng, in, call));
            }
            const bool traced = args.trace && r.attempted % 2 == 0;
            pb::SpanRecorder* rec = traced ? &spans : nullptr;
            int op_span = -1;

            const cake::Timer op_timer;
            {
                pb::ScopedSpan span(rec, "op", r.attempted);
                op_span = span.id();
                for (const std::size_t idx : order) {
                    pb::ScopedSpan call_span(
                        rec, pb::call_class_name(calls[idx].cls), r.attempted,
                        op_span);
                    live.runner->call(idx);
                }
            }
            (traced ? ep.traced_ms : ep.plain_ms)
                .push_back(op_timer.milliseconds());

            if (traced) {
                // The op's call spans follow its op span, in call order.
                std::array<double, pb::kCallClasses> per_class{};
                for (std::size_t j = 0; j < order.size(); ++j) {
                    const pb::Span& s = spans.spans()[static_cast<std::size_t>(
                        op_span) + 1 + j];
                    per_class[static_cast<std::size_t>(calls[order[j]].cls)] +=
                        static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
                }
                for (std::size_t c = 0; c < per_class.size(); ++c) {
                    ep.class_ms[c].push_back(per_class[c]);
                }
            }

            bool op_ok = true;
            for (std::size_t i = 0; i < calls.size(); ++i) {
                const cake::CbBlockParams& params = live.runner->params(i);
                const pb::CheckResult res =
                    pb::check_call(in, calls[i], params, samples[i]);
                r.checked += res.checked;
                r.bad += res.failed;
                r.worst = std::max(r.worst, res.worst);
                if (res.failed > 0) op_ok = false;
                ep.totals.add(live.runner->stats(i));
                ep.kernel_calls += kernel_calls(calls[i], params);
            }
            ++r.attempted;
            if (!op_ok) ++r.failed;
        }
    }
    r.loop_s = loop.seconds();
    const pb::HostSample host1 = pb::host_sample();
    if (host1.cpu_ticks > host0.cpu_ticks) {
        r.steal_frac = static_cast<double>(host1.steal_ticks - host0.steal_ticks)
            / static_cast<double>(host1.cpu_ticks - host0.cpu_ticks);
    }
    r.invol_ctxsw = static_cast<double>(host1.invol_ctxsw - host0.invol_ctxsw);

    // Keep the faster half of the epochs: a host burst that slows whole
    // seconds of the run lands in the dropped half, while a slower program
    // slows every epoch alike.
    std::vector<const OpRecords*> ranked;
    for (const OpRecords& ep : r.epochs) ranked.push_back(&ep);
    std::sort(ranked.begin(), ranked.end(),
              [](const OpRecords* x, const OpRecords* y) {
                  return x->median_ms() < y->median_ms();
              });
    ranked.resize((ranked.size() + 1) / 2);
    for (const OpRecords* ep : ranked) r.kept.merge(*ep);
    return r;
}

/// Operands and geometry the per-layer probes reuse from the workload.
struct ProbeGeometry {
    std::size_t call = 0;  ///< index of the call whose plan the probes use
    const float* a = nullptr;
    const float* b = nullptr;
    const float* bt = nullptr;  ///< an n x k operand for the B^T pack
    float* c = nullptr;
    index_t bt_k = 0, bt_n = 0;
};

ProbeGeometry probe_geometry(pb::Inputs& in, const std::vector<pb::CallSpec>& calls)
{
    if (in.kind != pb::WorkloadKind::kInferMix) {
        const pb::CallSpec& call = calls.front();
        // B's k x n storage read as the n x k storage of a transposed B.
        return {0, in.a.data(), in.b.data(), in.b.data(), in.c.data(), call.k,
                call.n};
    }
    ProbeGeometry g;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        if (calls[i].cls == pb::CallClass::kF32Prepacked && calls[i].slot == 2) {
            g.call = i;
        }
    }
    g.a = in.mix_a[2].data();
    g.b = in.mix_w.data();
    g.bt = in.sc_bt.data();
    g.c = in.mix_c[2].data();
    g.bt_k = pb::kMixScaled;
    g.bt_n = pb::kMixScaled;
    return g;
}

/// GOTO on the same inputs: the workload's call, or on infer-mix the f32
/// calls GOTO can express (plain A * B). Returns the calls and CAKE's
/// median milliseconds on them.
std::pair<std::vector<pb::GotoCall>, double> goto_reference(
    pb::Inputs& in, const std::vector<pb::CallSpec>& calls,
    const OpRecords& kept)
{
    std::vector<pb::GotoCall> goto_calls;
    if (in.kind != pb::WorkloadKind::kInferMix) {
        const pb::CallSpec& c = calls.front();
        goto_calls.push_back({in.a.data(), in.b.data(), c.m, c.n, c.k});
        std::vector<double> all = kept.plain_ms;
        append(all, kept.traced_ms);
        return {goto_calls, quantile(all, 0.5)};
    }
    for (const pb::CallSpec& c : calls) {
        const auto s = static_cast<std::size_t>(c.slot);
        if (c.cls == pb::CallClass::kF32Prepacked) {
            goto_calls.push_back({in.mix_a[s].data(), in.mix_w.data(), c.m, c.n, c.k});
        } else if (c.cls == pb::CallClass::kF32Small) {
            goto_calls.push_back({in.sm_a.data(), in.sm_b.data(), c.m, c.n, c.k});
        }
    }
    const auto& prepacked_ms =
        kept.class_ms[static_cast<std::size_t>(pb::CallClass::kF32Prepacked)];
    const auto& small_ms =
        kept.class_ms[static_cast<std::size_t>(pb::CallClass::kF32Small)];
    std::vector<double> same_calls_ms;
    for (std::size_t i = 0; i < prepacked_ms.size(); ++i) {
        same_calls_ms.push_back(prepacked_ms[i] + small_ms[i]);
    }
    return {goto_calls, quantile(same_calls_ms, 0.5)};
}

/// Median op seconds of the workload re-run with its own contexts at each
/// p of 1, 2, 4 (never above the pool size).
std::map<int, double> scaling_runs(const Args& args, pb::Inputs& in,
                                   cake::ThreadPool& pool,
                                   pb::SpanRecorder& spans)
{
    const std::size_t ncalls = pb::workload_calls(args.kind).size();
    std::map<int, double> op_s_at;
    for (const int want : {1, 2, 4}) {
        const int p = std::min(want, pool.size());
        if (op_s_at.count(p) != 0) continue;
        const char* span_name =
            p == 1 ? "scaling.p1" : p == 2 ? "scaling.p2" : "scaling.p4";
        pb::Runner runner(args.kind, in, pool, p);
        for (std::size_t i = 0; i < ncalls; ++i) runner.call(i);
        // At least 3 ops and about 0.4 s.
        std::vector<double> reps;
        const cake::Timer all;
        while (reps.size() < 3 || (all.seconds() < 0.4 && reps.size() < 200)) {
            pb::ScopedSpan span(&spans, span_name, -1);
            const cake::Timer rep;
            for (std::size_t i = 0; i < ncalls; ++i) runner.call(i);
            reps.push_back(rep.seconds());
        }
        op_s_at[p] = cake::median(reps);
    }
    return op_s_at;
}

/// The traced run's per-layer metrics: CakeStats of the kept ops, the
/// probes (one span each), GOTO, the scaling re-runs and the spans' own
/// figures. Adds each span name's self time to `record`.
std::vector<Metric> per_layer_metrics(const Args& args, pb::Inputs& in,
                                      Live& live, pb::SpanRecorder& spans,
                                      const RunResult& r,
                                      cake::bench::BenchRecord& record)
{
    const std::vector<pb::CallSpec> calls = pb::workload_calls(args.kind);
    const OpRecords& kept = r.kept;
    const double ops = kept.ops();
    cake::ThreadPool& pool = *live.pool;
    const int p = pool.size();
    auto probe = [&](const char* name, auto&& fn) {
        pb::ScopedSpan span(&spans, name, -1);
        return fn();
    };

    const ProbeGeometry g = probe_geometry(in, calls);
    const pb::CallSpec& pc = calls[g.call];
    const cake::CbBlockParams pr = live.runner->params(g.call);
    const index_t blk_m = std::min(pr.m_blk, pc.m);
    const index_t blk_k = std::min(pr.k_blk, pc.k);
    const index_t blk_n = std::min(pr.n_blk, pc.n);

    const double kernel_gflops = probe("probe.kernel", [&] {
        return pb::probe_kernel_gflops(cake::best_microkernel(), blk_k);
    });
    const double pack_a = probe("probe.pack_a", [&] {
        return pb::probe_pack_a_gbs(g.a, pc.k, blk_m, blk_k, pr.mr);
    });
    const double pack_b = probe("probe.pack_b", [&] {
        return pb::probe_pack_b_gbs(g.b, pc.n, blk_k, blk_n, pr.nr, false);
    });
    const double pack_bt = probe("probe.pack_bt", [&] {
        return pb::probe_pack_b_gbs(g.bt, g.bt_k, std::min(pr.k_blk, g.bt_k),
                                    std::min(pr.n_blk, g.bt_n), pr.nr, true);
    });
    const double memcpy_gbs = probe("probe.memcpy", [&] {
        return pb::probe_memcpy_gbs(
            static_cast<std::size_t>(blk_m * blk_k) * sizeof(float));
    });
    const double flush_gbs = probe("probe.flush", [&] {
        return pb::probe_flush_gbs(g.c, pc.n, blk_m, blk_n);
    });
    const double dispatch_us =
        probe("probe.dispatch", [&] { return pb::probe_dispatch_us(pool, p); });
    const double barrier_us =
        probe("probe.barrier", [&] { return pb::probe_barrier_us(pool, p); });
    const double plan_us = probe("probe.plan", [&] {
        return pb::probe_plan_us(cake::host_machine(), p, pr.mr, pr.nr, pc.m,
                                 pc.n, pc.k);
    });
    const auto [goto_calls, cake_ms] = goto_reference(in, calls, kept);
    double goto_flops = 0;
    for (const pb::GotoCall& c : goto_calls) {
        goto_flops += 2.0 * static_cast<double>(c.m * c.n * c.k);
    }
    const double goto_s = probe("probe.gotoblas", [&] {
        return pb::probe_goto_seconds(pool, p, goto_calls);
    });

    live.runner.reset();
    std::map<int, double> op_s_at = scaling_runs(args, in, pool, spans);

    const StatsTotals& totals = kept.totals;
    std::vector<Metric> metrics = {
        {"kernel.gflops", kernel_gflops, "GFLOP/s"},
        {"kernel.busy_frac", totals.frac(totals.compute), "fraction"},
        {"kernel.calls_per_op", kept.kernel_calls / ops, "count"},
        {"pack.a_gbs", pack_a, "GB/s"},
        {"pack.b_gbs", pack_b, "GB/s"},
        {"pack.bt_gbs", pack_bt, "GB/s"},
        {"pack.memcpy_gbs", memcpy_gbs, "GB/s"},
        {"pack.a_over_memcpy", pack_a / memcpy_gbs, "ratio"},
        {"pack.a_per_op", totals.a_packs / ops, "count"},
        {"pack.b_per_op", totals.b_packs / ops, "count"},
        {"pack.busy_frac", totals.frac(totals.pack), "fraction"},
        {"flush.gbs", flush_gbs, "GB/s"},
        {"flush.per_op", totals.flushes / ops, "count"},
        {"flush.busy_frac", totals.frac(totals.flush), "fraction"},
        {"threading.dispatch_us", dispatch_us, "us"},
        {"threading.barrier_us", barrier_us, "us"},
        {"threading.stall_frac", totals.frac(totals.stall), "fraction"},
        {"threading.scaling_p2", op_s_at[1] / op_s_at[std::min(2, p)], "ratio"},
        {"threading.scaling_p4", op_s_at[1] / op_s_at[std::min(4, p)], "ratio"},
        {"core.plan_us", plan_us, "us"},
        {"core.blocks_per_op", totals.blocks / ops, "count"},
        {"core.overlap_eff",
         totals.pack > 0 ? totals.overlap_weighted / totals.pack : 0.0,
         "fraction"},
        {"core.dram_mb_per_op", totals.dram_bytes / ops / 1e6, "MB"},
    };

    // Call-class split of the traced ops: median time per op, and share of
    // the mean call time.
    std::array<double, pb::kCallClasses> class_mean{};
    double class_mean_sum = 0;
    for (std::size_t c = 0; c < class_mean.size(); ++c) {
        class_mean[c] = cake::mean(kept.class_ms[c]);
        class_mean_sum += class_mean[c];
    }
    for (const pb::CallClass cls :
         {pb::CallClass::kF32Prepacked, pb::CallClass::kI8Prepacked,
          pb::CallClass::kF32ScaledBt, pb::CallClass::kF32Small}) {
        const auto c = static_cast<std::size_t>(cls);
        const std::string name = pb::call_class_name(cls);
        // Zero on workloads without calls of the class.
        metrics.push_back({"core.call_ms." + name,
                           kept.class_ms[c].empty() ? 0.0
                                                    : quantile(kept.class_ms[c], 0.5),
                           "ms"});
        metrics.push_back({"core.share." + name,
                           class_mean_sum > 0 ? class_mean[c] / class_mean_sum : 0.0,
                           "fraction"});
    }

    // Self time of every span name.
    const std::vector<std::int64_t> self = spans.self_ns();
    cake::bench::BenchCase self_case{"span_self_ms", {}, {}};
    double op_total = 0, op_self = 0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        const pb::Span& s = spans.spans()[i];
        self_case.metrics[std::string(s.name) + ".self_ms"] +=
            static_cast<double>(self[i]) / 1e6;
        self_case.metrics[std::string(s.name) + ".count"] += 1;
        if (std::string_view(s.name) == "op") {
            op_total += static_cast<double>(s.end_ns - s.begin_ns);
            op_self += static_cast<double>(self[i]);
        }
    }
    record.cases.push_back(self_case);

    metrics.insert(
        metrics.end(),
        {{"gotoblas.gflops", goto_flops / goto_s / 1e9, "GFLOP/s"},
         {"gotoblas.cake_over_goto", 1e3 * goto_s / cake_ms, "ratio"},
         {"bench.trace_overhead",
          quantile(kept.traced_ms, 0.5) / quantile(kept.plain_ms, 0.5), "ratio"},
         {"bench.op_self_frac", op_total > 0 ? op_self / op_total : 0.0,
          "fraction"},
         {"host.steal_frac", r.steal_frac, "fraction"},
         {"host.invol_ctxsw_per_op",
          r.invol_ctxsw / static_cast<double>(r.attempted), "count"}});
    return metrics;
}

/// Machine, kernels, pool and the CB plan of every call class.
cake::bench::BenchRecord run_record(const Args& args, int pool_size,
                                    const pb::Runner& runner)
{
    const cake::MachineFingerprint& fp = cake::host_fingerprint();
    cake::bench::BenchRecord record;
    record.bench = std::string("perfbench.") + pb::workload_name(args.kind);
    record.machine_key = fp.key();
    record.machine_json = fp.json();
    record.context = {
        {"workload", pb::workload_name(args.kind)},
        {"seed", std::to_string(args.seed)},
        {"seconds", cake::bench::bench_json_number(args.seconds)},
        {"trace", args.trace ? "1" : "0"},
        {"loop", "closed, 1 caller thread"},
        {"p", std::to_string(pool_size)},
        {"pool_size", std::to_string(pool_size)},
        {"f32_kernel", cake::best_microkernel().name},
        {"i8_kernel", cake::best_int8_microkernel().name},
        {"plan_source", "none (analytic plans)"},
        {"obs_tracer", "off"},
        {"hw_counters", "not used (no metric relies on hardware events)"},
    };
    std::set<std::string> planned;
    for (std::size_t i = 0; i < runner.calls().size(); ++i) {
        const std::string name =
            std::string("plan.") + pb::call_class_name(runner.calls()[i].cls);
        if (!planned.insert(name).second) continue;
        const cake::CbBlockParams& pr = runner.params(i);
        record.cases.push_back(
            {name,
             {{"p", pr.p}, {"mr", static_cast<double>(pr.mr)},
              {"nr", static_cast<double>(pr.nr)},
              {"mc", static_cast<double>(pr.mc)},
              {"kc", static_cast<double>(pr.kc)}, {"alpha", pr.alpha},
              {"m_blk", static_cast<double>(pr.m_blk)},
              {"k_blk", static_cast<double>(pr.k_blk)},
              {"n_blk", static_cast<double>(pr.n_blk)}},
             {}});
    }
    return record;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::cout << (i ? ", " : "") << "\""
                  << cake::bench::bench_json_escape(m.name)
                  << "\": {\"value\": " << cake::bench::bench_json_number(m.value)
                  << ", \"unit\": \"" << cake::bench::bench_json_escape(m.unit)
                  << "\"}";
    }
    std::cout << "}}" << std::endl;
}

int run(const Args& args)
{
    // The caller is worker 0 of the pool; never more workers than cores.
    const int pool_size = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    pb::Inputs in = pb::Inputs::generate(args.kind, args.seed);
    Live live;
    pb::SpanRecorder spans;
    const RunResult r = run_epochs(args, in, pool_size, live, spans);
    const OpRecords& kept = r.kept;

    cake::bench::BenchRecord record = run_record(args, pool_size, *live.runner);
    const std::vector<double>& ms = kept.plain_ms;
    std::vector<double> all_ms;
    for (const OpRecords& ep : r.epochs) {
        append(all_ms, ep.plain_ms);
        append(all_ms, ep.traced_ms);
    }
    record.cases.push_back(
        {"run",
         {{"op_samples", static_cast<double>(ms.size())},
          // Not a bounded metric: its run-to-run spread follows the host.
          {"op_ms_p90", quantile(ms, 0.9)},
          {"op_samples_above_p90", std::floor(0.1 * static_cast<double>(ms.size()))},
          {"attempted", static_cast<double>(r.attempted)},
          {"failed", static_cast<double>(r.failed)},
          {"fail_frac", static_cast<double>(r.failed) / static_cast<double>(r.attempted)},
          {"epochs", static_cast<double>(r.epochs.size())},
          {"epochs_kept", static_cast<double>(kept.setup_s.size())},
          {"op_ms_p50_all_epochs", quantile(all_ms, 0.5)},
          {"checked_elements", static_cast<double>(r.checked)},
          {"bad_elements", static_cast<double>(r.bad)},
          {"worst_err_over_bound", r.worst},
          {"loop_s", r.loop_s},
          {"host.steal_frac", r.steal_frac},
          {"host.invol_ctxsw_per_op",
           r.invol_ctxsw / static_cast<double>(r.attempted)}},
         {}});

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = per_layer_metrics(args, in, live, spans, r, record);
        if (!args.trace_out.empty()) {
            const std::filesystem::path out(args.trace_out);
            if (out.has_parent_path()) {
                std::filesystem::create_directories(out.parent_path());
            }
            if (!spans.write_chrome_json(args.trace_out)) {
                std::cerr << "perfbench_run: cannot write " << args.trace_out
                          << "\n";
            }
        }
    } else {
        const double p50 = quantile(ms, 0.5);
        metrics = {
            {"gflops", pb::op_flops(args.kind) / (p50 / 1e3) / 1e9, "GFLOP/s"},
            {"op_ms_p50", p50, "ms"},
            {"setup_s", cake::median(kept.setup_s), "s"},
            {"peak_rss_mb", pb::peak_rss_mb(), "MB"},
        };
    }

    cake::bench::BenchCase metric_case{"metrics", {}, {}};
    for (const Metric& m : metrics) {
        metric_case.metrics[m.name] = m.value;
        metric_case.labels["unit." + m.name] = m.unit;
    }
    record.cases.push_back(metric_case);
    cake::bench::write_bench_json(record, std::cout);

    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::cerr << "perfbench_run: metric " << m.name << " is not finite\n";
            return 1;
        }
    }
    const bool correct = r.failed == 0;
    print_result(correct, r.attempted, r.failed, metrics);
    if (!correct) {
        std::cerr << "perfbench_run: " << r.failed << " of " << r.attempted
                  << " ops failed the output check (" << r.bad << " of "
                  << r.checked << " sampled elements)\n";
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    for (const char* name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::cerr << "perfbench_run: refusing to run with " << name
                      << " set; unset it so runs stay comparable\n";
            return 2;
        }
    }
    const Args args = parse_args(argc, argv);
    // A fixed mmap threshold: every buffer of 1 MiB or more is mapped
    // fresh and unmapped on free, so each epoch's set-up touches new pages
    // and peak RSS does not depend on how earlier epochs left the heap.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_run: " << e.what() << "\n";
        return 1;
    }
}

#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"

namespace perfbench {

namespace {

cake::AlignedBuffer<float> random_buffer(std::size_t count)
{
    cake::AlignedBuffer<float> buf(count);
    cake::Rng rng(count);
    for (std::size_t i = 0; i < count; ++i) {
        buf.data()[i] = rng.next_float(-1.0f, 1.0f);
    }
    return buf;
}

/// Moved bytes (read + write) of an r x c f32 block per second, in GB/s.
double gbs(index_t rows, index_t cols, double seconds)
{
    return 2.0 * static_cast<double>(rows * cols) * sizeof(float) / seconds
        / 1e9;
}

/// Keeps results the probes compute observable so they are not elided.
volatile std::size_t g_sink = 0;

/// Median seconds of one call of `fn`, over `batches` batches each sized
/// to last about a millisecond (after one warm-up call).
double median_seconds_per_call(const std::function<void()>& fn,
                               int batches = 21)
{
    fn();
    const cake::Timer first;
    fn();
    const double one = std::max(first.seconds(), 1e-9);
    const auto inner = static_cast<long>(
        std::clamp(1e-3 / one, 1.0, 1e6));
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        const cake::Timer batch;
        for (long i = 0; i < inner; ++i) fn();
        per_call.push_back(batch.seconds() / static_cast<double>(inner));
    }
    return cake::median(per_call);
}

}  // namespace

double probe_kernel_gflops(const cake::MicroKernel& kernel, index_t kc)
{
    const auto a = random_buffer(static_cast<std::size_t>(kernel.mr * kc));
    const auto b = random_buffer(static_cast<std::size_t>(kernel.nr * kc));
    cake::AlignedBuffer<float> c(static_cast<std::size_t>(kernel.mr * kernel.nr),
                                 /*zero=*/true);
    const double s = median_seconds_per_call([&] {
        kernel.fn(kc, a.data(), b.data(), c.data(), kernel.nr,
                  /*accumulate=*/true);
    });
    g_sink = g_sink + static_cast<std::size_t>(c.data()[0] != 0.0f);
    return 2.0 * static_cast<double>(kernel.mr * kernel.nr * kc) / s / 1e9;
}

double probe_pack_a_gbs(const float* a, index_t lda, index_t m, index_t k,
                        index_t mr)
{
    cake::AlignedBuffer<float> out(
        static_cast<std::size_t>(cake::packed_a_size(m, k, mr)));
    const double s = median_seconds_per_call(
        [&] { cake::pack_a_panel(a, lda, m, k, mr, out.data()); });
    return gbs(m, k, s);
}

double probe_pack_b_gbs(const float* b, index_t ldb, index_t k, index_t n,
                        index_t nr, bool transposed)
{
    cake::AlignedBuffer<float> out(
        static_cast<std::size_t>(cake::packed_b_size(k, n, nr)));
    const double s = median_seconds_per_call([&] {
        if (transposed) {
            cake::pack_b_panel_transposed(b, ldb, k, n, nr, out.data());
        } else {
            cake::pack_b_panel(b, ldb, k, n, nr, out.data());
        }
    });
    return gbs(k, n, s);
}

double probe_memcpy_gbs(std::size_t bytes)
{
    const auto src = random_buffer(bytes / sizeof(float));
    cake::AlignedBuffer<float> dst(bytes / sizeof(float));
    const double s = median_seconds_per_call(
        [&] { std::memcpy(dst.data(), src.data(), bytes); });
    g_sink = g_sink + static_cast<std::size_t>(dst.data()[0] != 0.0f);
    return 2.0 * static_cast<double>(bytes) / s / 1e9;
}

double probe_flush_gbs(float* c, index_t ldc, index_t m, index_t n)
{
    const auto surface = random_buffer(static_cast<std::size_t>(m * n));
    const double s = median_seconds_per_call([&] {
        cake::unpack_c_block_scaled(surface.data(), m, n, c, ldc, 1.0f, 0.0f);
    });
    return gbs(m, n, s);
}

double probe_dispatch_us(cake::ThreadPool& pool, int p)
{
    return 1e6 * median_seconds_per_call(
                     [&] { pool.run_team(p, [](cake::TeamContext&, int) {}); });
}

double probe_barrier_us(cake::ThreadPool& pool, int p)
{
    constexpr int kCrossings = 1000;
    const double s = median_seconds_per_call(
        [&] {
            pool.run_team(p, [](cake::TeamContext& team, int) {
                for (int i = 0; i < kCrossings; ++i) team.barrier();
            });
        },
        11);
    return 1e6 * s / kCrossings;
}

double probe_plan_us(const cake::MachineSpec& machine, int p, index_t mr,
                     index_t nr, index_t m, index_t n, index_t k)
{
    return 1e6 * median_seconds_per_call([&] {
        cake::TilingOptions topts;
        topts.elem_bytes = sizeof(float);
        const cake::CbBlockParams params =
            cake::compute_cb_block(machine, p, mr, nr, topts);
        const auto order = cake::build_schedule(
            cake::ScheduleKind::kKFirstSerpentine,
            cake::ceil_div(m, params.m_blk), cake::ceil_div(n, params.n_blk),
            cake::ceil_div(k, params.k_blk), n >= m);
        g_sink = g_sink + order.size();
    });
}

double probe_goto_seconds(cake::ThreadPool& pool, int p,
                          const std::vector<GotoCall>& calls)
{
    cake::GotoOptions options;
    options.p = p;
    cake::GotoGemm gemm(pool, options);
    std::vector<std::vector<float>> outputs;
    for (const GotoCall& call : calls) {
        outputs.emplace_back(static_cast<std::size_t>(call.m * call.n));
    }
    auto run_all = [&] {
        for (std::size_t i = 0; i < calls.size(); ++i) {
            const GotoCall& call = calls[i];
            gemm.multiply(call.a, call.k, call.b, call.n, outputs[i].data(),
                          call.n, call.m, call.n, call.k);
        }
    };
    run_all();
    // At least 5 repetitions and about half a second, whichever is longer.
    std::vector<double> reps;
    const cake::Timer all;
    while (reps.size() < 5 || (all.seconds() < 0.5 && reps.size() < 500)) {
        const cake::Timer rep;
        run_all();
        reps.push_back(rep.seconds());
    }
    return cake::median(reps);
}

HostSample host_sample()
{
    HostSample sample;
    std::ifstream stat("/proc/stat");
    std::string line;
    if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
        std::istringstream fields(line.substr(4));
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        for (int i = 0; i < 8; ++i) {
            std::uint64_t v = 0;
            if (!(fields >> v)) break;
            sample.cpu_ticks += v;
            if (i == 7) sample.steal_ticks = v;
        }
    }
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) sample.invol_ctxsw = usage.ru_nivcsw;
    return sample;
}

double peak_rss_mb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

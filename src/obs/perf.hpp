// Silicon-truth counters for the CB-block pipeline: perf_event groups with
// per-worker, per-phase attribution.
//
// Every other verification layer in this tree (audit, schedule-IR, memsim,
// locality) checks the paper's Eq.-2 DRAM-traffic claim against *models and
// simulators*. This layer reads the hardware: a PerfCounterGroup opens one
// perf_event group per thread (cycles, instructions, LLC-loads,
// LLC-load-misses, stalled backend cycles by default), and RAII
// ScopedPhaseDelta scopes — placed exactly where the executors already emit
// obs::ScopedSpan trace spans — accumulate grouped counter deltas into
// (worker id, phase) cells. The worker id is the same ThreadPool
// attribution the tracer uses (obs::thread_worker(), set by ScopedWorkerId
// around every job), so trace spans and counter deltas agree on who did
// what. tools/cake_perf turns the collected deltas into per-phase counter
// tables, a measured arithmetic-intensity operating point, and the
// model-vs-silicon divergence gate (obs.perf.dram_divergence).
//
// Graceful degradation is a hard requirement: containers and hardened
// kernels (perf_event_paranoid >= 2 without CAP_PERFMON, seccomp filters,
// VMs without a virtualised PMU) routinely deny some or all events. Every
// entry point below works in that world — groups open what they can,
// remember why the rest failed (Availability::reason), and readers render
// "-" for counters that never scheduled. Nothing in this layer ever aborts
// a multiply.
//
// Concurrency contract (same as trace.hpp): each thread owns its counter
// group and accumulator cells exclusively; enable()/disable()/reset()/
// collect() are control-plane calls that must only run at quiescent points
// (after the ThreadPool join that ends a multiply). Hot-path cost when
// disarmed: one relaxed atomic load per ScopedPhaseDelta.
//
// Build modes: the layer rides the obs gate. -DCAKE_TRACE_DISABLED=ON
// compiles it out with the rest of src/obs: every function below becomes
// a constexpr/inline no-op, perf.cpp becomes an empty translation unit,
// and no cake::obs::perf symbol reaches release objects (nm-gated in
// .github/workflows/analysis.yml). Non-Linux hosts degrade the same way
// at compile time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // CAKE_OBS_ENABLED, Phase, thread_worker()

#if CAKE_OBS_ENABLED && defined(__linux__)
#define CAKE_PERF_ENABLED 1
#else
#define CAKE_PERF_ENABLED 0
#endif

namespace cake {
namespace obs {
namespace perf {

/// Number of Phase enumerators (kNone..kOther) — accumulator array size.
inline constexpr std::size_t kPhaseCount = 5;

/// Upper bound on counters per group. Grouped events must co-schedule on
/// one PMU, which tops out well below this on every CPU we target.
inline constexpr std::size_t kMaxCounters = 8;

/// One event to open: a raw (type, config) pair from linux/perf_event.h,
/// kept as plain integers so this header parses on non-Linux builds.
/// `name` must have static storage duration (string literals).
struct CounterSpec {
    const char* name = "";
    std::uint32_t type = 0;    ///< PERF_TYPE_*
    std::uint64_t config = 0;  ///< PERF_COUNT_* (or cache-event triple)
};

/// Multiplexing-scaled counter values for one scope (or an accumulation of
/// scopes). Slot i corresponds to spec i of the group that produced it;
/// `available[i]` is false when that event never opened or never scheduled,
/// and readers must render "-" for it rather than 0.
struct CounterSet {
    std::size_t n = 0;  ///< live slots (== the group's spec count)
    std::array<std::uint64_t, kMaxCounters> value{};
    std::array<bool, kMaxCounters> available{};
    std::uint64_t time_enabled_ns = 0;
    std::uint64_t time_running_ns = 0;

    [[nodiscard]] bool any() const
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (available[i]) return true;
        }
        return false;
    }

    CounterSet& operator+=(const CounterSet& o)
    {
        if (o.n > n) n = o.n;
        for (std::size_t i = 0; i < o.n; ++i) {
            if (!o.available[i]) continue;
            value[i] += o.value[i];
            available[i] = true;
        }
        time_enabled_ns += o.time_enabled_ns;
        time_running_ns += o.time_running_ns;
        return *this;
    }
};

/// Why (and how far) perf_event_open works for this process.
struct Availability {
    bool usable = false;      ///< at least one default counter opens
    std::size_t opened = 0;   ///< how many of the probed specs opened
    std::string reason;       ///< first failure, errno-decoded, for banners
};

/// Counter deltas one worker accumulated, split by execution phase.
struct WorkerPerf {
    std::int32_t worker = -1;  ///< team tid; -1 = outside any team job
    std::array<CounterSet, kPhaseCount> phase{};

    [[nodiscard]] CounterSet total() const
    {
        CounterSet t;
        for (const CounterSet& p : phase) t += p;
        return t;
    }
};

/// Snapshot of every thread's accumulators, merged by worker id.
struct PerfDump {
    std::vector<CounterSpec> specs;    ///< slot meaning for every CounterSet
    std::vector<WorkerPerf> workers;   ///< ascending worker id (-1 first)
    Availability availability;
    std::uint64_t line_bytes = 64;     ///< cache line size used for bytes

    [[nodiscard]] CounterSet total() const
    {
        CounterSet t;
        for (const WorkerPerf& w : workers) t += w.total();
        return t;
    }

    /// Slot index of the spec called `name`, or -1.
    [[nodiscard]] int slot(const char* name) const;

    /// Scaled count of the spec called `name` summed over all workers and
    /// phases; false when that counter never scheduled anywhere.
    [[nodiscard]] bool total_of(const char* name, std::uint64_t* out) const;
};

/// Measured-vs-predicted DRAM read traffic (the Eq.-2 divergence gate).
/// `measured_bytes` = LLC-load-miss count x cache line size: demand loads
/// that left the last-level cache. Hardware prefetchers fetch streams the
/// demand-miss counter never sees, so on real silicon measured demand-miss
/// bytes routinely sit BELOW the model for streaming GEMM traffic — the
/// gate's tolerance is therefore generous and two-sided.
struct Divergence {
    bool measured = false;       ///< counters were available
    double measured_bytes = 0;   ///< LLC-load-misses x line_bytes
    double predicted_bytes = 0;  ///< Eq.-2 / schedule-IR / memsim reads
    double ratio = 0;            ///< measured / predicted
    double divergence = 0;       ///< |measured - predicted| / predicted
};

/// Counter-derived roofline operating point for one timed run.
struct OperatingPoint {
    bool measured = false;
    double flops = 0;
    double seconds = 0;
    double dram_bytes = 0;  ///< measured LLC-load-miss bytes
    double ai = 0;          ///< flops / dram_bytes
    double gflops = 0;
};

#if CAKE_PERF_ENABLED

/// The default hardware group: cycles, instructions, llc-loads,
/// llc-load-misses, stalled-cycles-backend.
[[nodiscard]] std::vector<CounterSpec> default_counter_specs();

/// Software events (task-clock-ns, page-faults, context-switches). These
/// open even where the PMU is absent or denied (perf_event_paranoid
/// permitting) — the tests use them to exercise the live read path in
/// PMU-less CI containers.
[[nodiscard]] std::vector<CounterSpec> software_counter_specs();

/// A perf_event group owned by the calling thread: the first spec that
/// opens becomes the leader, later ones join it, failures are recorded and
/// skipped. Reads are grouped (one syscall) and multiplexing-scaled.
/// Move-only; closes its fds on destruction. Must be read from the thread
/// that constructed it (perf self-monitoring fds count the opening task).
class PerfCounterGroup {
public:
    PerfCounterGroup() = default;
    explicit PerfCounterGroup(const std::vector<CounterSpec>& specs);
    ~PerfCounterGroup();
    PerfCounterGroup(PerfCounterGroup&& o) noexcept;
    PerfCounterGroup& operator=(PerfCounterGroup&& o) noexcept;
    PerfCounterGroup(const PerfCounterGroup&) = delete;
    PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

    /// True iff at least one event opened.
    [[nodiscard]] bool usable() const { return leader_ >= 0; }

    /// First open failure, errno-decoded; empty when everything opened.
    [[nodiscard]] const std::string& error() const { return error_; }

    [[nodiscard]] const std::vector<CounterSpec>& specs() const
    {
        return specs_;
    }

    /// Grouped read of current raw totals (values are cumulative since
    /// open; scale deltas with delta(), which handles multiplexing).
    /// False when the group is unusable or the read fails.
    [[nodiscard]] bool read(CounterSet* out) const;

    /// end - begin, multiplexing-scaled over the interval: each raw delta
    /// is inflated by (delta time_enabled / delta time_running) so counts
    /// stay comparable when the kernel rotates groups on and off the PMU.
    [[nodiscard]] static CounterSet delta(const CounterSet& begin,
                                          const CounterSet& end);

private:
    void close_all() noexcept;

    std::vector<CounterSpec> specs_;
    std::array<int, kMaxCounters> fd_{};
    std::array<int, kMaxCounters> read_pos_{};  ///< slot -> group-read index
    int leader_ = -1;
    std::size_t opened_ = 0;
    std::string error_;
};

// --- runtime control (quiescent points only) ----------------------------

/// Can this process open the default hardware group? Probes once on the
/// calling thread, caches the answer for the process lifetime.
[[nodiscard]] Availability probe();

/// Arm per-phase accumulation with the default hardware specs (or an
/// explicit spec list — the tests pass software_counter_specs()). Threads
/// open their groups lazily on first scoped delta (or eagerly via
/// ensure_thread_counters()). Returns false when nothing can open — the
/// layer stays armed anyway and every scope degrades to a cheap no-op.
bool enable();
bool enable(std::vector<CounterSpec> specs);

/// Disarm accumulation. Accumulated deltas remain collectable.
void disable();

/// Drop every thread's group and accumulators (threads re-open on next
/// use). Must not run concurrently with scoped sections.
void reset();

/// True iff accumulation is armed. One relaxed load.
[[nodiscard]] bool enabled() noexcept;

/// Pre-open the calling thread's counter group so the open()/ioctl cost
/// stays out of the first timed scope — the counter analogue of
/// ensure_thread_ring(). ThreadPool calls this as each job slot starts.
void ensure_thread_counters();

/// Immediate scaled totals of the calling thread's group (opening it if
/// needed). False when disarmed or the group is unusable.
[[nodiscard]] bool read_thread_counters(CounterSet* out);

/// Snapshot every thread's per-(worker, phase) accumulators, merged by
/// worker id. Must not run concurrently with scoped sections.
[[nodiscard]] PerfDump collect();

/// Coherency line size used to convert LLC-load-misses to bytes
/// (sysconf(_SC_LEVEL1_DCACHE_LINESIZE) with a 64-byte fallback).
[[nodiscard]] std::uint64_t cache_line_bytes() noexcept;

/// RAII per-phase counter scope: reads the owning thread's group at
/// construction and destruction and accumulates the scaled delta into the
/// (obs::thread_worker(), phase) cell. Place alongside obs::ScopedSpan so
/// spans and counters attribute identically. Cost when disarmed: one
/// relaxed atomic load.
class ScopedPhaseDelta {
public:
    explicit ScopedPhaseDelta(Phase phase);
    ~ScopedPhaseDelta();
    ScopedPhaseDelta(const ScopedPhaseDelta&) = delete;
    ScopedPhaseDelta& operator=(const ScopedPhaseDelta&) = delete;

private:
    CounterSet begin_;
    Phase phase_ = Phase::kNone;
    bool armed_ = false;
};

/// Publish collected totals into the metrics registry (obs.perf.cycles,
/// obs.perf.instructions, obs.perf.llc_loads, obs.perf.llc_load_misses,
/// obs.perf.llc_miss_bytes). No-op when metrics are disarmed.
void publish(const PerfDump& dump);

#else  // !CAKE_PERF_ENABLED

// Compiled-out build (-DCAKE_TRACE_DISABLED=ON or non-Linux): every
// entry point is a constexpr/inline no-op the optimiser deletes at the
// call site; perf.cpp is an empty translation unit, so no cake::obs::perf
// symbol reaches release objects.

[[nodiscard]] inline std::vector<CounterSpec> default_counter_specs()
{
    return {};
}
[[nodiscard]] inline std::vector<CounterSpec> software_counter_specs()
{
    return {};
}

class PerfCounterGroup {
public:
    PerfCounterGroup() = default;
    explicit PerfCounterGroup(const std::vector<CounterSpec>& /*specs*/) {}
    PerfCounterGroup(PerfCounterGroup&&) noexcept = default;
    PerfCounterGroup& operator=(PerfCounterGroup&&) noexcept = default;
    PerfCounterGroup(const PerfCounterGroup&) = delete;
    PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

    [[nodiscard]] bool usable() const { return false; }
    [[nodiscard]] const std::string& error() const { return error_; }
    [[nodiscard]] const std::vector<CounterSpec>& specs() const
    {
        return specs_;
    }
    [[nodiscard]] bool read(CounterSet* /*out*/) const { return false; }
    [[nodiscard]] static CounterSet delta(const CounterSet& /*begin*/,
                                          const CounterSet& /*end*/)
    {
        return {};
    }

private:
    std::vector<CounterSpec> specs_;
    std::string error_;
};

[[nodiscard]] inline Availability probe() { return {}; }
inline bool enable() { return false; }
inline bool enable(std::vector<CounterSpec> /*specs*/) { return false; }
constexpr void disable() {}
constexpr void reset() {}
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
constexpr void ensure_thread_counters() {}
[[nodiscard]] constexpr bool read_thread_counters(CounterSet* /*out*/)
{
    return false;
}
[[nodiscard]] inline PerfDump collect() { return {}; }
[[nodiscard]] constexpr std::uint64_t cache_line_bytes() noexcept
{
    return 64;
}

class ScopedPhaseDelta {
public:
    explicit constexpr ScopedPhaseDelta(Phase /*phase*/) {}
    ScopedPhaseDelta(const ScopedPhaseDelta&) = delete;
    ScopedPhaseDelta& operator=(const ScopedPhaseDelta&) = delete;
};

constexpr void publish(const PerfDump& /*dump*/) {}

#endif  // CAKE_PERF_ENABLED

// --- derived metrics (plain arithmetic; live in all builds) -------------

inline int PerfDump::slot(const char* name) const
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (std::string(specs[i].name) == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

inline bool PerfDump::total_of(const char* name, std::uint64_t* out) const
{
    const int s = slot(name);
    if (s < 0) return false;
    const CounterSet t = total();
    const auto i = static_cast<std::size_t>(s);
    if (i >= t.n || !t.available[i]) return false;
    if (out != nullptr) *out = t.value[i];
    return true;
}

/// Demand DRAM read bytes implied by a dump's LLC-load-misses; false when
/// that counter never scheduled.
inline bool llc_miss_bytes(const PerfDump& dump, double* out)
{
    std::uint64_t misses = 0;
    if (!dump.total_of("llc-load-misses", &misses)) return false;
    if (out != nullptr) {
        *out = static_cast<double>(misses)
               * static_cast<double>(dump.line_bytes);
    }
    return true;
}

/// Measured-vs-predicted DRAM read traffic. `predicted_read_bytes` is the
/// Eq.-2 / schedule-IR / memsim figure (byte-exact across the three — see
/// DESIGN.md §10/§12); the measurement is demand-miss bytes from the dump.
inline Divergence dram_divergence(const PerfDump& dump,
                                  double predicted_read_bytes)
{
    Divergence d;
    d.predicted_bytes = predicted_read_bytes;
    if (!llc_miss_bytes(dump, &d.measured_bytes)) return d;
    d.measured = true;
    if (predicted_read_bytes > 0) {
        d.ratio = d.measured_bytes / predicted_read_bytes;
        d.divergence =
            (d.measured_bytes > predicted_read_bytes
                 ? d.measured_bytes - predicted_read_bytes
                 : predicted_read_bytes - d.measured_bytes)
            / predicted_read_bytes;
    }
    return d;
}

/// Counter-derived roofline operating point for a run of `flops` floating
/// point operations over `seconds`.
inline OperatingPoint operating_point(const PerfDump& dump, double flops,
                                      double seconds)
{
    OperatingPoint p;
    p.flops = flops;
    p.seconds = seconds;
    if (seconds > 0) p.gflops = flops / seconds * 1e-9;
    if (!llc_miss_bytes(dump, &p.dram_bytes)) return p;
    p.measured = true;
    if (p.dram_bytes > 0) p.ai = flops / p.dram_bytes;
    return p;
}

}  // namespace perf
}  // namespace obs
}  // namespace cake

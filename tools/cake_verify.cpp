// cake_verify: schedule-IR extraction + symbolic dataflow verification.
//
// Extracts the declarative schedule IR of a CAKE (serial or pipelined) or
// GOTO multiply — a dry run, no arithmetic — and statically proves exact
// cover, race freedom, double-buffer lifetime safety and the paper's Eq.-2
// IO accounting, cross-checking the byte totals against the src/memsim
// address stream. Exit code 0 iff every verified plan is clean; each
// violation prints one line with a stable IR_* code.
//
// Usage:
//   cake_verify --machine intel --shape 2000x2000x2000 --exec pipelined
//   cake_verify --kind ninner --exec serial --f64
//   cake_verify --sweep       (Table-2 presets x kinds x executors)
//   cake_verify --mutations   (every corruption rejected with its code)
//
// --numerics switches to the static numerics verifier
// (analysis/numerics.hpp): the same flags select the plan, but the proof
// is the per-plan floating-point error bound rather than the dataflow.
//   cake_verify --numerics [--dtype f32|f64|f16|bf16|i8]
//   cake_verify --numerics --sweep       (presets x {f32,f64,i8} x execs)
//   cake_verify --numerics --mutations   (numerics corruptions rejected)
//
// --locality switches to the static reuse-distance analyzer
// (analysis/locality.hpp): the proof is that the schedule's DRAM traffic
// obeys the typed stack-distance law, byte-exact against io_totals and
// (on the shallow-K f32 serial configs) the memsim address stream.
//   cake_verify --locality [--kind hilbert] [--exec serial]
//   cake_verify --locality --sweep       (presets x dtypes x all kinds)
//   cake_verify --locality --mutations   (locality corruptions rejected)
//
// --kernels switches to the kernel-IR static checker
// (analysis/kernelcheck.hpp): every registered micro-kernel (all ISAs x
// f32/f64/i8) is proved covered, spill-free and honestly modelled, and —
// where the host CPU can run it — lane-fingerprinted against the kernel
// binary.
//   cake_verify --kernels [--sweep]      (all registered kernels)
//   cake_verify --kernels --mutations    (kernel-IR corruptions rejected)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/kernelcheck.hpp"
#include "analysis/locality.hpp"
#include "analysis/numerics.hpp"
#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "core/fperror.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/kernel_ir.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"

namespace {

using cake::index_t;
using cake::schedir::Exec;
using cake::schedir::Mutation;
using cake::schedir::ScheduleIR;
using cake::schedir::VerifyReport;

struct Options {
    std::string machine = "intel";
    int p = 0;  // 0 = all preset cores
    index_t mr = 6;
    index_t nr = 16;
    cake::GemmShape shape{2000, 2000, 2000};
    bool f64 = false;
    std::optional<index_t> mc;
    cake::ScheduleKind kind = cake::ScheduleKind::kKFirstSerpentine;
    Exec exec = Exec::kPipelined;
    bool memsim = false;
    bool sweep = false;
    bool mutations = false;
    bool numerics = false;
    bool locality = false;
    bool kernels = false;
    std::string dtype;  // empty = follow --f64
};

[[noreturn]] void usage_error(const std::string& msg)
{
    std::cerr
        << "cake_verify: " << msg << "\n"
        << "usage: cake_verify [--machine intel|amd|arm|host] [--p N]\n"
        << "                   [--mr N] [--nr N] [--shape MxNxK] [--f64]\n"
        << "                   [--mc N]\n"
        << "                   [--kind serpentine|noflip|ninner|hilbert|morton]\n"
        << "                   [--exec serial|pipelined|goto] [--memsim]\n"
        << "                   [--sweep] [--mutations]\n"
        << "                   [--numerics [--dtype f32|f64|f16|bf16|i8]]\n"
        << "                   [--locality] [--kernels]\n";
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
    const std::size_t x1 = value.find('x');
    const std::size_t x2 = value.find('x', x1 + 1);
    if (x1 == std::string::npos || x2 == std::string::npos) {
        usage_error("--shape expects MxNxK, got '" + value + "'");
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
        if (arg == "--machine") {
            opt.machine = next(i, "--machine");
        } else if (arg == "--p") {
            opt.p = static_cast<int>(parse_index(next(i, "--p"), "--p"));
        } else if (arg == "--mr") {
            opt.mr = parse_index(next(i, "--mr"), "--mr");
        } else if (arg == "--nr") {
            opt.nr = parse_index(next(i, "--nr"), "--nr");
        } else if (arg == "--shape") {
            opt.shape = parse_shape(next(i, "--shape"));
        } else if (arg == "--f64") {
            opt.f64 = true;
        } else if (arg == "--mc") {
            opt.mc = parse_index(next(i, "--mc"), "--mc");
        } else if (arg == "--kind") {
            const std::string v = next(i, "--kind");
            // Registry names first (the canonical spelling every consumer
            // shares), then the historical shorthands.
            if (const auto kind = cake::parse_schedule_kind(v)) {
                opt.kind = *kind;
            } else if (v == "serpentine") {
                opt.kind = cake::ScheduleKind::kKFirstSerpentine;
            } else if (v == "noflip") {
                opt.kind = cake::ScheduleKind::kKFirstNoFlip;
            } else if (v == "ninner") {
                opt.kind = cake::ScheduleKind::kNInnermost;
            } else {
                usage_error("unknown --kind '" + v + "'");
            }
        } else if (arg == "--exec") {
            const std::string v = next(i, "--exec");
            if (v == "serial") {
                opt.exec = Exec::kSerial;
            } else if (v == "pipelined") {
                opt.exec = Exec::kPipelined;
            } else if (v == "goto") {
                opt.exec = Exec::kGoto;
            } else {
                usage_error("unknown --exec '" + v + "'");
            }
        } else if (arg == "--memsim") {
            opt.memsim = true;
        } else if (arg == "--sweep") {
            opt.sweep = true;
        } else if (arg == "--mutations") {
            opt.mutations = true;
        } else if (arg == "--numerics") {
            opt.numerics = true;
        } else if (arg == "--locality") {
            opt.locality = true;
        } else if (arg == "--kernels") {
            opt.kernels = true;
        } else if (arg == "--dtype") {
            opt.dtype = next(i, "--dtype");
            if (cake::find_dtype(opt.dtype) == nullptr) {
                usage_error("unknown --dtype '" + opt.dtype + "'");
            }
        } else if (arg == "--help" || arg == "-h") {
            usage_error("help requested");
        } else {
            usage_error("unknown argument '" + arg + "'");
        }
    }
    return opt;
}

/// Verify one IR (optionally also against the memsim address stream);
/// print a PASS/FAIL line plus per-issue diagnostics.
bool verify_one(const std::string& label, const ScheduleIR& ir,
                bool with_memsim)
{
    VerifyReport report = cake::schedir::verify_schedule_ir(ir);
    if (with_memsim) {
        const VerifyReport mem = cake::schedir::cross_check_memsim(ir);
        report.issues.insert(report.issues.end(), mem.issues.begin(),
                             mem.issues.end());
    }
    const cake::schedir::IoTotals io = cake::schedir::io_totals(ir);
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << label << "  ops="
              << ir.ops.size() << " phases=" << ir.num_phases
              << " io(rd=" << io.reads() << ",wr=" << io.writes() << ")"
              << (with_memsim ? "  [memsim]" : "") << "\n";
    for (const cake::schedir::VerifyIssue& issue : report.issues) {
        std::cout << "  [" << issue.code << "] " << issue.message << "\n";
    }
    return report.ok();
}

std::string config_label(const std::string& machine, bool f64,
                         const cake::GemmShape& shape,
                         cake::ScheduleKind kind, Exec exec)
{
    std::string label = machine;
    label += f64 ? "  f64  " : "  f32  ";
    label += std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x"
        + std::to_string(shape.k);
    if (exec != Exec::kGoto) {
        label += std::string("  ") + cake::schedule_kind_name(kind);
    }
    label += std::string("  ") + cake::schedir::exec_name(exec);
    return label;
}

/// Verify all Table-2 presets x shape classes x schedule kinds x executors
/// (the shapes and kernel tiles mirror cake_audit --sweep), each at
/// beta == 0 and beta != 0: the first slab of a column visit is a plain
/// write in the one and a read-modify-write in the other. The memsim
/// cross-check runs on the shallow-K beta == 0 shape, where the full
/// address-stream replay is cheap; the analytic Eq.-2 check covers every
/// config.
bool run_sweep()
{
    const std::vector<cake::GemmShape> shapes = {
        {2000, 2000, 2000},  // square (Fig. 10 protocol)
        {8000, 256, 2048},   // M-heavy / narrow-N skewed
        {3000, 3000, 96},    // shallow-K panel (DNN-style)
        {16, 2000, 512},     // fewer mr bands than cores: split slivers
    };
    const std::vector<cake::ScheduleKind>& kinds = cake::all_schedule_kinds();
    bool all_ok = true;
    for (const cake::MachineSpec& machine : cake::table2_machines()) {
        for (const bool f64 : {false, true}) {
            cake::TilingOptions topts;
            topts.elem_bytes = f64 ? 8 : 4;
            const index_t mr = 6;
            const index_t nr = f64 ? 8 : 16;
            const cake::CbBlockParams params = cake::compute_cb_block(
                machine, machine.cores, mr, nr, topts);
            const cake::GotoBlocking blocking =
                goto_default_blocking(machine, mr, nr);
            for (const cake::GemmShape& shape : shapes) {
                const bool memsim_here = !f64 && shape.k == 96;
                for (const cake::ScheduleKind kind : kinds) {
                    for (const Exec exec :
                         {Exec::kSerial, Exec::kPipelined}) {
                        for (const bool beta : {false, true}) {
                            const ScheduleIR ir =
                                cake::schedir::extract_cake_ir(
                                    shape, params, kind, exec,
                                    /*use_prepacked=*/false, beta);
                            // Trace replay once per plan: both executors
                            // model identical byte totals by construction.
                            all_ok &= verify_one(
                                config_label(machine.name, f64, shape, kind,
                                             exec)
                                    + (beta ? "  beta" : ""),
                                ir,
                                memsim_here && exec == Exec::kSerial
                                    && !beta);
                        }
                    }
                }
                if (!f64) {  // the GOTO trace layer is f32-fixed
                    const ScheduleIR goto_ir =
                        cake::schedir::extract_goto_ir(shape, blocking,
                                                       machine.cores, mr,
                                                       nr);
                    all_ok &= verify_one(
                        config_label(machine.name, f64, shape, kinds[0],
                                     Exec::kGoto),
                        goto_ir, memsim_here);
                }
            }
        }
    }
    return all_ok;
}

/// Small multi-column grid (forced mc) so every mutation has a site:
/// several C columns (column turnovers), kb >= 2 (multi-slab column
/// visits, double-buffer handoffs) and p workers.
ScheduleIR mutation_subject(Exec exec)
{
    const cake::MachineSpec machine = cake::intel_i9_10900k();
    cake::TilingOptions topts;
    topts.mc = 48;
    const cake::GemmShape shape{1000, 1000, 200};
    if (exec == Exec::kGoto) {
        return cake::schedir::extract_goto_ir(
            shape, goto_default_blocking(machine, 6, 16), machine.cores, 6,
            16);
    }
    const cake::CbBlockParams params =
        cake::compute_cb_block(machine, machine.cores, 6, 16, topts);
    return cake::schedir::extract_cake_ir(shape, params,
                                          cake::ScheduleKind::kKFirstSerpentine,
                                          exec);
}

bool check_mutation(Exec exec, Mutation m)
{
    ScheduleIR ir = mutation_subject(exec);
    const std::string expected = cake::schedir::apply_mutation(ir, m);
    const VerifyReport report = cake::schedir::verify_schedule_ir(ir);
    const bool rejected = report.has(expected);
    std::cout << (rejected ? "PASS" : "FAIL") << "  "
              << cake::schedir::exec_name(exec) << "  "
              << cake::schedir::mutation_name(m) << " -> expects "
              << expected << ", verifier reported ["
              << (report.issues.empty() ? "clean" : report.codes()) << "]\n";
    return rejected;
}

/// Every mutation applied to a fresh pipelined IR (plus the exec-agnostic
/// ones to serial and GOTO IRs), each rejected with its specific code —
/// and the uncorrupted IRs verify clean.
bool run_mutations()
{
    bool all_ok = true;
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined, Exec::kGoto}) {
        all_ok &= verify_one(std::string("clean ")
                                 + cake::schedir::exec_name(exec),
                             mutation_subject(exec), false);
    }
    const Mutation all[] = {
        Mutation::kDropOp,              Mutation::kDupOp,
        Mutation::kReorderAccum,        Mutation::kSeverColumnBarrier,
        Mutation::kSeverPackBarrier,    Mutation::kShrinkGeneration,
        Mutation::kDropFirstSlab,
    };
    for (const Mutation m : all) {
        all_ok &= check_mutation(Exec::kPipelined, m);
    }
    for (const Mutation m : {Mutation::kDropOp, Mutation::kDupOp}) {
        all_ok &= check_mutation(Exec::kSerial, m);
        all_ok &= check_mutation(Exec::kGoto, m);
    }
    return all_ok;
}

// --- Static numerics verification (--numerics) --------------------------

/// Verify one IR's accumulation structure against `dtype` and print a
/// PASS/FAIL line carrying the derived per-plan error bound.
bool numerics_one(const std::string& label, const ScheduleIR& ir,
                  const cake::DtypeDesc& dtype)
{
    const cake::numerics::NumericsReport report =
        cake::numerics::verify_numerics(ir, dtype);
    char bound[96];
    if (dtype.is_integer) {
        std::snprintf(bound, sizeof bound, "acc_range=%.0f i32_safe=%s",
                      report.bound.acc_range,
                      report.bound.i32_safe ? "yes" : "NO");
    } else {
        std::snprintf(bound, sizeof bound, "rel_bound=%.3e",
                      report.bound.rel_bound);
    }
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << label
              << "  depth=" << report.ir_fma_depth
              << " segs=" << report.ir_segments << " " << bound << "\n";
    for (const cake::numerics::NumericsIssue& issue : report.issues) {
        std::cout << "  [" << issue.code << "] " << issue.message << "\n";
    }
    return report.ok();
}

std::string numerics_label(const std::string& machine,
                           const cake::DtypeDesc& dtype,
                           const cake::GemmShape& shape,
                           cake::ScheduleKind kind, Exec exec)
{
    std::string label = machine;
    label += std::string("  ") + dtype.name + "  ";
    label += std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x"
        + std::to_string(shape.k);
    if (exec != Exec::kGoto) {
        label += std::string("  ") + cake::schedule_kind_name(kind);
    }
    label += std::string("  ") + cake::schedir::exec_name(exec);
    return label;
}

/// Numerics sweep: every Table-2 preset x shape class x precision path
/// ({f32, f64, i8}) x schedule kind x executor (plus GOTO per precision).
bool run_numerics_sweep()
{
    const std::vector<cake::GemmShape> shapes = {
        {2000, 2000, 2000},
        {8000, 256, 2048},
        {3000, 3000, 96},
        {16, 2000, 512},
    };
    const cake::DtypeDesc* dtypes[] = {&cake::dtype_f32(), &cake::dtype_f64(),
                                       &cake::dtype_i8()};
    const std::vector<cake::ScheduleKind>& kinds = cake::all_schedule_kinds();
    bool all_ok = true;
    for (const cake::MachineSpec& machine : cake::table2_machines()) {
        for (const cake::DtypeDesc* dtype : dtypes) {
            cake::TilingOptions topts;
            topts.elem_bytes = dtype->elem_bytes;
            const index_t mr = 6;
            const index_t nr = dtype->elem_bytes == 8 ? 8 : 16;
            const cake::CbBlockParams params = cake::compute_cb_block(
                machine, machine.cores, mr, nr, topts);
            const cake::GotoBlocking blocking =
                goto_default_blocking(machine, mr, nr);
            for (const cake::GemmShape& shape : shapes) {
                for (const cake::ScheduleKind kind : kinds) {
                    for (const Exec exec :
                         {Exec::kSerial, Exec::kPipelined}) {
                        const ScheduleIR ir = cake::schedir::extract_cake_ir(
                            shape, params, kind, exec);
                        all_ok &= numerics_one(
                            numerics_label(machine.name, *dtype, shape, kind,
                                           exec),
                            ir, *dtype);
                    }
                }
                const ScheduleIR goto_ir = cake::schedir::extract_goto_ir(
                    shape, blocking, machine.cores, mr, nr,
                    /*accumulate=*/false, dtype->elem_bytes);
                all_ok &= numerics_one(
                    numerics_label(machine.name, *dtype, shape, kinds[0],
                                   Exec::kGoto),
                    goto_ir, *dtype);
            }
        }
    }
    return all_ok;
}

bool check_num_mutation(Exec exec, cake::numerics::NumMutation m)
{
    ScheduleIR ir = mutation_subject(exec);
    const std::string expected =
        cake::numerics::apply_numerics_mutation(ir, m);
    const cake::numerics::NumericsReport report =
        cake::numerics::verify_numerics(ir, cake::dtype_f32());
    const bool rejected = report.has(expected);
    std::cout << (rejected ? "PASS" : "FAIL") << "  "
              << cake::schedir::exec_name(exec) << "  "
              << cake::numerics::num_mutation_name(m) << " -> expects "
              << expected << ", verifier reported ["
              << (report.issues.empty() ? "clean" : report.codes()) << "]\n";
    return rejected;
}

/// Numerics mutation gate: clean IRs verify clean, then every numerics
/// corruption is rejected with its specific code on every executor that
/// has a site for it.
bool run_numerics_mutations()
{
    using cake::numerics::NumMutation;
    bool all_ok = true;
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined, Exec::kGoto}) {
        all_ok &= numerics_one(std::string("clean ")
                                   + cake::schedir::exec_name(exec),
                               mutation_subject(exec), cake::dtype_f32());
    }
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined, Exec::kGoto}) {
        all_ok &= check_num_mutation(exec, NumMutation::kDeepenAccum);
        all_ok &= check_num_mutation(exec, NumMutation::kLyingDtype);
    }
    // Generation turnover only exists on the CAKE executors (GOTO streams
    // C straight to the user surface — apply_numerics_mutation throws).
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        all_ok &= check_num_mutation(exec, NumMutation::kDropTurnover);
    }
    return all_ok;
}

bool run_numerics_single(const Options& opt)
{
    const cake::MachineSpec machine = cake::machine_by_name(opt.machine);
    const int p = opt.p > 0 ? opt.p : machine.cores;
    const std::string name =
        opt.dtype.empty() ? (opt.f64 ? "f64" : "f32") : opt.dtype;
    const cake::DtypeDesc& dtype = *cake::find_dtype(name);
    if (opt.exec == Exec::kGoto) {
        const ScheduleIR ir = cake::schedir::extract_goto_ir(
            opt.shape, goto_default_blocking(machine, opt.mr, opt.nr), p,
            opt.mr, opt.nr, /*accumulate=*/false, dtype.elem_bytes);
        return numerics_one(numerics_label(machine.name, dtype, opt.shape,
                                           opt.kind, opt.exec),
                            ir, dtype);
    }
    cake::TilingOptions topts;
    topts.elem_bytes = dtype.elem_bytes;
    topts.mc = opt.mc;
    const cake::CbBlockParams params =
        cake::compute_cb_block(machine, p, opt.mr, opt.nr, topts);
    const ScheduleIR ir = cake::schedir::extract_cake_ir(
        opt.shape, params, opt.kind, opt.exec);
    return numerics_one(numerics_label(machine.name, dtype, opt.shape,
                                       opt.kind, opt.exec),
                        ir, dtype);
}

// --- Static locality verification (--locality) --------------------------

/// Analyse one CAKE IR's reuse structure and print a PASS/FAIL line with
/// the predicted traffic and LLC locality evidence. `with_memsim` chains
/// the proof to the memsim address stream (predicted == io_totals by
/// LOC_TRAFFIC, io_totals == trace by cross_check_memsim).
bool locality_one(const std::string& label, const ScheduleIR& ir,
                  bool with_memsim)
{
    const cake::locality::LocalityReport rep =
        cake::locality::analyze_locality(ir);
    bool ok = rep.ok();
    std::cout << (ok ? "PASS" : "FAIL") << "  " << label << "  steps="
              << rep.steps << " shared=" << rep.shared_transitions << "/"
              << (rep.steps > 0 ? rep.steps - 1 : 0)
              << " rd=" << rep.predicted.reads()
              << " wr=" << rep.predicted.writes();
    if (!rep.levels.empty()) {
        const cake::locality::LevelStats& llc = rep.levels.back();
        std::cout << " " << llc.name << "(hit=" << llc.hits
                  << ",miss=" << llc.misses << ",cold=" << llc.cold << ")";
    }
    std::cout << (with_memsim ? "  [memsim]" : "") << "\n";
    for (const cake::locality::LocalityIssue& issue : rep.issues) {
        std::cout << "  [" << issue.code << "] " << issue.message << "\n";
    }
    if (with_memsim) {
        const VerifyReport mem = cake::schedir::cross_check_memsim(ir);
        ok &= mem.ok();
        for (const cake::schedir::VerifyIssue& issue : mem.issues) {
            std::cout << "  [" << issue.code << "] " << issue.message << "\n";
        }
    }
    return ok;
}

/// Locality sweep: Table-2 presets x {f32, f64} x shape classes x EVERY
/// registered schedule kind x both CAKE executors. The memsim address-
/// stream chain runs once per plan on the shallow-K f32 serial configs,
/// completing the prediction -> simulation equality for every kind.
bool run_locality_sweep()
{
    const std::vector<cake::GemmShape> shapes = {
        {2000, 2000, 2000},
        {8000, 256, 2048},
        {3000, 3000, 96},
        {16, 2000, 512},
    };
    bool all_ok = true;
    for (const cake::MachineSpec& machine : cake::table2_machines()) {
        for (const bool f64 : {false, true}) {
            cake::TilingOptions topts;
            topts.elem_bytes = f64 ? 8 : 4;
            const index_t mr = 6;
            const index_t nr = f64 ? 8 : 16;
            const cake::CbBlockParams params = cake::compute_cb_block(
                machine, machine.cores, mr, nr, topts);
            for (const cake::GemmShape& shape : shapes) {
                const bool memsim_here = !f64 && shape.k == 96;
                for (const cake::ScheduleKind kind :
                     cake::all_schedule_kinds()) {
                    for (const Exec exec :
                         {Exec::kSerial, Exec::kPipelined}) {
                        const ScheduleIR ir = cake::schedir::extract_cake_ir(
                            shape, params, kind, exec);
                        all_ok &= locality_one(
                            config_label(machine.name, f64, shape, kind,
                                         exec),
                            ir, memsim_here && exec == Exec::kSerial);
                    }
                }
            }
        }
    }
    return all_ok;
}

bool check_loc_mutation(Exec exec, cake::locality::LocMutation m)
{
    ScheduleIR ir = mutation_subject(exec);
    const std::string expected =
        cake::locality::apply_locality_mutation(ir, m);
    const cake::locality::LocalityReport report =
        cake::locality::analyze_locality(ir);
    const bool rejected = report.has(expected);
    std::cout << (rejected ? "PASS" : "FAIL") << "  "
              << cake::schedir::exec_name(exec) << "  "
              << cake::locality::loc_mutation_name(m) << " -> expects "
              << expected << ", analyzer reported ["
              << (report.issues.empty() ? "clean" : report.codes()) << "]\n";
    return rejected;
}

/// Locality mutation gate: clean CAKE IRs analyse clean, then every
/// locality corruption is rejected with its specific code on both
/// executors (the analyzer is CAKE-only; GOTO has no block order).
bool run_locality_mutations()
{
    using cake::locality::LocMutation;
    bool all_ok = true;
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        all_ok &= locality_one(std::string("clean ")
                                   + cake::schedir::exec_name(exec),
                               mutation_subject(exec), false);
    }
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        all_ok &= check_loc_mutation(exec, LocMutation::kTwistOrder);
        all_ok &= check_loc_mutation(exec, LocMutation::kSkewFetch);
        all_ok &= check_loc_mutation(exec, LocMutation::kPhantomFetch);
        all_ok &= check_loc_mutation(exec, LocMutation::kInflateWriteback);
    }
    return all_ok;
}

bool run_locality_single(const Options& opt)
{
    if (opt.exec == Exec::kGoto) {
        usage_error("--locality requires a CAKE exec (serial|pipelined)");
    }
    const cake::MachineSpec machine = cake::machine_by_name(opt.machine);
    const int p = opt.p > 0 ? opt.p : machine.cores;
    cake::TilingOptions topts;
    topts.elem_bytes = opt.f64 ? 8 : 4;
    topts.mc = opt.mc;
    const cake::CbBlockParams params =
        cake::compute_cb_block(machine, p, opt.mr, opt.nr, topts);
    const ScheduleIR ir = cake::schedir::extract_cake_ir(
        opt.shape, params, opt.kind, opt.exec);
    return locality_one(config_label(machine.name, opt.f64, opt.shape,
                                     opt.kind, opt.exec),
                        ir, opt.memsim && !opt.f64);
}

// --- Kernel-IR static verification (--kernels) --------------------------

/// Print one kernel's check result: the proven register budget, derived
/// chain depth, static peak and whether the binary fingerprint ran.
bool kernels_one(const cake::kernelcheck::KernelReport& report)
{
    char peak[32];
    std::snprintf(peak, sizeof peak, "%.1f", report.ops_per_cycle);
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << report.kernel
              << "  " << report.family << "  " << cake::isa_name(report.isa)
              << "  " << report.mr << "x" << report.nr << "  regs="
              << report.regs_used << "/" << report.reg_budget
              << " chain=" << report.derived_chain << " peak=" << peak
              << " ops/cycle"
              << (report.fingerprinted ? "  [fingerprint]" : "") << "\n";
    for (const cake::kernelcheck::KernelIssue& issue : report.issues) {
        std::cout << "  [" << issue.code << "] " << issue.message << "\n";
    }
    return report.ok();
}

/// Check every registered kernel IR: symbolic obligations, registry
/// binding, and (host permitting) the binary lane fingerprint. Every
/// registry entry must also carry an IR — an unmodelled kernel fails.
bool run_kernels_sweep()
{
    bool all_ok = true;
    for (const cake::KernelIr& ir : cake::all_kernel_irs()) {
        all_ok &= kernels_one(cake::kernelcheck::check_kernel(ir));
    }
    // Completeness: a kernel in the registry without an IR would silently
    // escape every obligation above.
    std::vector<std::string> unmodelled;
    for (const cake::MicroKernel& k : cake::all_microkernels_of<float>()) {
        if (cake::kernel_ir_for(k.name) == nullptr) unmodelled.push_back(k.name);
    }
    for (const cake::MicroKernelD& k : cake::all_microkernels_of<double>()) {
        if (cake::kernel_ir_for(k.name) == nullptr) unmodelled.push_back(k.name);
    }
    for (const cake::Int8MicroKernel& k : cake::all_int8_microkernels()) {
        if (cake::kernel_ir_for(k.name) == nullptr) unmodelled.push_back(k.name);
    }
    for (const std::string& name : unmodelled) {
        std::cout << "FAIL  " << name
                  << "  registered kernel has no IR descriptor\n";
        all_ok = false;
    }
    return all_ok;
}

bool check_kir_mutation(const cake::KernelIr& clean,
                        cake::kernelcheck::KirMutation m)
{
    cake::KernelIr ir = clean;
    const std::string expected =
        cake::kernelcheck::apply_kernel_mutation(ir, m);
    const cake::kernelcheck::KernelReport report =
        cake::kernelcheck::verify_kernel_ir(ir);
    // Isolation: the mutation must trip its specific code and nothing
    // else — a second code firing would mean the obligations overlap.
    const bool rejected = report.has(expected)
        && report.codes() == expected;
    std::cout << (rejected ? "PASS" : "FAIL") << "  " << clean.kernel << "  "
              << cake::kernelcheck::kir_mutation_name(m) << " -> expects ["
              << expected << "] only, verifier reported ["
              << (report.issues.empty() ? "clean" : report.codes()) << "]\n";
    return rejected;
}

/// Kernel mutation gate: every clean IR verifies clean, then every
/// corruption is rejected on every registered kernel with its specific
/// code and no other.
bool run_kernels_mutations()
{
    bool all_ok = true;
    for (const cake::KernelIr& ir : cake::all_kernel_irs()) {
        const cake::kernelcheck::KernelReport clean =
            cake::kernelcheck::verify_kernel_ir(ir);
        if (!clean.ok()) {
            all_ok &= kernels_one(clean);
            continue;
        }
        for (int m = 0; m < cake::kernelcheck::kKirMutationCount; ++m) {
            all_ok &= check_kir_mutation(
                ir, static_cast<cake::kernelcheck::KirMutation>(m));
        }
    }
    return all_ok;
}

bool run_single(const Options& opt)
{
    const cake::MachineSpec machine = cake::machine_by_name(opt.machine);
    const int p = opt.p > 0 ? opt.p : machine.cores;
    if (opt.exec == Exec::kGoto) {
        const ScheduleIR ir = cake::schedir::extract_goto_ir(
            opt.shape, goto_default_blocking(machine, opt.mr, opt.nr), p,
            opt.mr, opt.nr);
        return verify_one(config_label(machine.name, opt.f64, opt.shape,
                                       opt.kind, opt.exec),
                          ir, opt.memsim && !opt.f64);
    }
    cake::TilingOptions topts;
    topts.elem_bytes = opt.f64 ? 8 : 4;
    topts.mc = opt.mc;
    const cake::CbBlockParams params =
        cake::compute_cb_block(machine, p, opt.mr, opt.nr, topts);
    const ScheduleIR ir = cake::schedir::extract_cake_ir(
        opt.shape, params, opt.kind, opt.exec);
    return verify_one(config_label(machine.name, opt.f64, opt.shape,
                                   opt.kind, opt.exec),
                      ir, opt.memsim && !opt.f64);
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);

    bool ok = false;
    try {
        if (opt.kernels) {
            // --sweep and the bare form are the same full check; the
            // kernel inventory is small enough to always verify whole.
            ok = opt.mutations ? run_kernels_mutations()
                               : run_kernels_sweep();
        } else if (opt.locality) {
            ok = opt.sweep        ? run_locality_sweep()
                 : opt.mutations  ? run_locality_mutations()
                                  : run_locality_single(opt);
        } else if (opt.numerics) {
            ok = opt.sweep        ? run_numerics_sweep()
                 : opt.mutations  ? run_numerics_mutations()
                                  : run_numerics_single(opt);
        } else if (opt.sweep) {
            ok = run_sweep();
        } else if (opt.mutations) {
            ok = run_mutations();
        } else {
            ok = run_single(opt);
        }
    } catch (const std::exception& e) {
        std::cerr << "cake_verify: " << e.what() << "\n";
        return 2;
    }
    return ok ? 0 : 1;
}

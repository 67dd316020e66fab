// The benchmark's own spans: recorded around the calls it makes into the
// library (never inside it), kept in memory, written out when the run
// ends. A span's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"

namespace perfbench {

struct Span {
    const char* name = "";  ///< static string
    std::int64_t op = -1;   ///< shared by every span of one op; -1 = probe
    int parent = -1;        ///< index of the parent span, -1 = root
    std::int64_t begin_ns = 0, end_ns = 0;
};

class SpanRecorder {
public:
    using Clock = std::chrono::steady_clock;

    int begin(const char* name, std::int64_t op, int parent = -1)
    {
        spans_.push_back({name, op, parent, now_ns(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }
    void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: duration minus its children's durations.
    [[nodiscard]] std::vector<std::int64_t> self_ns() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].end_ns - spans_[i].begin_ns;
            if (spans_[i].parent >= 0) {
                self[static_cast<std::size_t>(spans_[i].parent)] -=
                    spans_[i].end_ns - spans_[i].begin_ns;
            }
        }
        return self;
    }

    /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
    bool write_chrome_json(const std::string& path) const
    {
        std::ofstream f(path);
        if (!f.good()) return false;
        f << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            f << "{\"name\": \"" << cake::bench::bench_json_escape(s.name)
              << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
              << cake::bench::bench_json_number(static_cast<double>(s.begin_ns) / 1e3)
              << ", \"dur\": "
              << cake::bench::bench_json_number(
                     static_cast<double>(s.end_ns - s.begin_ns) / 1e3)
              << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
              << ", \"op\": " << s.op << "}}"
              << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        f << "]}\n";
        return f.good();
    }

private:
    [[nodiscard]] std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it free (untraced ops read no clock).
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t op,
               int parent = -1)
        : rec_(rec), id_(rec ? rec->begin(name, op, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_) rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int id() const { return id_; }

private:
    SpanRecorder* rec_;
    int id_;
};

}  // namespace perfbench

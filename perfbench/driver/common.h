/**
 * @file
 * Shared pieces of the benchmark driver: the seeded op-stream generators,
 * latency summaries, the per-round result record, host clocks, and the
 * in-memory span recorder the traced run uses.
 *
 * Everything the simulated system receives is generated here from the
 * workload seed, so a refactor of the repository's own workload module
 * cannot move the benchmark's inputs.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

/** SplitMix64 finalizer: a strong 64-bit mix. */
inline uint64_t
Mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** SplitMix64 stream; one per generated quantity, forked from the seed. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}

    uint64_t
    Next()
    {
        state_ += 0x9E3779B97F4A7C15ULL;
        uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform in (0, 1]. */
    double
    Uniform()
    {
        return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
    }

    /** Uniform in [0, n). */
    uint64_t Below(uint64_t n) { return Next() % n; }

    /** Uniform in [lo, hi]. */
    uint64_t InRange(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }

    /** Exponential with the given mean (Poisson inter-arrival gaps). */
    double Exp(double mean) { return -mean * std::log(Uniform()); }

  private:
    uint64_t state_;
};

/** Zipfian ranks in [0, n) with exponent theta (Gray et al., as YCSB). */
class Zipf
{
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        double zetan = 0.0;
        for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
        zetan_ = zetan;
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
    }

    uint64_t
    Next(Rng &rng) const
    {
        const double u = rng.Uniform();
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
        const auto r = static_cast<uint64_t>(
            static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(r, n_ - 1);
    }

  private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
};

/** FNV-1a over 64-bit words: the op-stream fingerprint. */
class StreamHash
{
  public:
    void
    Add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xCBF29CE484222325ULL;
};

/** @p count distinct nonzero keys derived from @p seed. */
std::vector<uint64_t> MakeKeys(uint64_t seed, uint64_t count);

// ---------------------------------------------------------------------------
// Latency summaries
// ---------------------------------------------------------------------------

/** Nearest-rank quantile of an already sorted sample; 0 when empty. */
template <typename T>
double
Quantile(const std::vector<T> &sorted, double q)
{
    if (sorted.empty()) return 0.0;
    auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return static_cast<double>(sorted[rank - 1]);
}

template <typename T>
double
Mean(const std::vector<T> &v)
{
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (T x : v) s += static_cast<double>(x);
    return s / static_cast<double>(v.size());
}

inline double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Host time in nanoseconds: CPU time of the calling thread. The driver
 * and the simulator are single-threaded, so this is the host cost of the
 * work, without the time other processes on the machine take.
 */
inline uint64_t
HostNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** HostNowNs() in seconds. */
inline double
HostNow()
{
    return static_cast<double>(HostNowNs()) / 1e9;
}

// ---------------------------------------------------------------------------
// Round results
// ---------------------------------------------------------------------------

/** One traffic self-check: a measured share against its threshold. */
struct SelfCheck
{
    std::string name;
    double value = 0.0;
    std::string base;  ///< What the share is measured over.
    std::string rule;  ///< The threshold, as text.
    bool pass = false;
};

/**
 * Everything one round (set-up + measured phase + output checks) of one
 * workload produced. `sim` holds the simulated end-to-end metrics, which
 * are deterministic for a seed; host timings are kept apart.
 */
struct Round
{
    std::map<std::string, double> sim;
    std::map<std::string, double> layer;  ///< Traced rounds only.
    std::vector<std::string> report;      ///< Human-readable lines.
    std::vector<SelfCheck> checks;
    std::vector<std::string> violations;  ///< Output-check failures.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t op_hash = 0;
    double setup_host_s = 0.0;
    double measured_host_s = 0.0;
    /** Host seconds of each simulated-time slice of the measured phase;
     *  identical rounds cut the same slices. */
    std::vector<double> chunk_host_s;
    double ops_completed = 0.0;  ///< For sim.ops_per_host_s.
    uint64_t events = 0;         ///< Events dispatched in the measured phase.

    void
    Violation(const std::string &what)
    {
        if (violations.size() < 20) violations.push_back(what);
        else if (violations.size() == 20) violations.push_back("...");
    }
};

// ---------------------------------------------------------------------------
// Span recorder (traced rounds)
// ---------------------------------------------------------------------------

/** One probe span: a call into a layer, from call to completion. */
struct Span
{
    const char *name = "";
    uint32_t parent = 0;    ///< Index + 1 of the parent span; 0 = none.
    uint64_t request = 0;   ///< Request id; 0 = background work.
    int64_t sim_start = 0;  ///< Simulated ns.
    int64_t sim_end = -1;   ///< -1 until the completion fired.
    uint64_t host_ns = 0;   ///< Host ns inside the call and its completion.
};

/**
 * Keeps spans in memory. A span's parent is the span whose call or
 * completion is on the stack when the child call is made; a span opened
 * with an empty stack is background work (flush or compaction).
 */
class Tracer
{
  public:
    /** Open a span at @p now; returns its handle (index + 1). */
    uint32_t
    Open(const char *name, int64_t now, uint64_t request = 0)
    {
        Span s;
        s.name = name;
        s.sim_start = now;
        if (!stack_.empty()) {
            s.parent = stack_.back();
            s.request = spans_[stack_.back() - 1].request;
        }
        if (request != 0) s.request = request;
        spans_.push_back(s);
        return static_cast<uint32_t>(spans_.size());
    }

    void Close(uint32_t h, int64_t now) { spans_[h - 1].sim_end = now; }
    void AddHost(uint32_t h, uint64_t ns) { spans_[h - 1].host_ns += ns; }

    /** RAII: span @p h is on the stack (its call or completion runs). */
    class Active
    {
      public:
        Active(Tracer *t, uint32_t h) : t_(t), h_(h), t0_(HostNowNs())
        {
            if (t_) t_->stack_.push_back(h_);
        }
        ~Active()
        {
            if (!t_) return;
            t_->stack_.pop_back();
            t_->AddHost(h_, HostNowNs() - t0_);
        }
        Active(const Active &) = delete;
        Active &operator=(const Active &) = delete;

      private:
        Tracer *t_;
        uint32_t h_;
        uint64_t t0_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as CSV; @return false on I/O error. */
    bool WriteCsv(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/** Count, mean, p99 and mean self time of closed spans named @p name. */
struct SpanSummary
{
    uint64_t count = 0;
    double mean_ns = 0.0;
    double p99_ns = 0.0;
    double self_mean_ns = 0.0;  ///< Duration minus children's coverage.
};

SpanSummary Summarize(const Tracer &tracer, const std::string &name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H

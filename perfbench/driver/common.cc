#include "common.h"

#include <cstdio>
#include <unordered_set>
#include <utility>

namespace perfbench {

std::vector<uint64_t>
MakeKeys(uint64_t seed, uint64_t count)
{
    std::vector<uint64_t> keys;
    keys.reserve(count);
    std::unordered_set<uint64_t> seen;
    Rng rng(seed ^ 0x6B657973ULL);
    while (keys.size() < count) {
        const uint64_t k = rng.Next() | 1;
        if (seen.insert(k).second) keys.push_back(k);
    }
    return keys;
}

bool
Tracer::WriteCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,parent,request,sim_start_ns,sim_end_ns,host_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%s,%u,%llu,%lld,%lld,%llu\n", i + 1, s.name,
                     s.parent, static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.sim_start),
                     static_cast<long long>(s.sim_end),
                     static_cast<unsigned long long>(s.host_ns));
    }
    return std::fclose(f) == 0;
}

SpanSummary
Summarize(const Tracer &tracer, const std::string &name)
{
    const std::vector<Span> &spans = tracer.spans();
    // Child intervals per parent, for self time.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent != 0 && s.sim_end >= 0) {
            kids[s.parent - 1].emplace_back(s.sim_start, s.sim_end);
        }
    }
    SpanSummary out;
    std::vector<uint64_t> durations;
    double self_sum = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.sim_end < 0 || name != s.name) continue;
        const int64_t dur = s.sim_end - s.sim_start;
        durations.push_back(static_cast<uint64_t>(dur));
        // Union of the children's intervals, clipped to this span.
        auto iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.sim_start);
            hi = std::min(hi, s.sim_end);
            if (hi <= lo) continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        self_sum += static_cast<double>(dur - covered);
    }
    out.count = durations.size();
    if (out.count == 0) return out;
    out.mean_ns = Mean(durations);
    std::sort(durations.begin(), durations.end());
    out.p99_ns = Quantile(durations, 0.99);
    out.self_mean_ns = self_sum / static_cast<double>(out.count);
    return out;
}

}  // namespace perfbench

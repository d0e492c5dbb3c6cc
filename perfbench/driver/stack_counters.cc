#include "stack_counters.h"

#include <algorithm>

#include "common.h"
#include "obs/hub.h"

namespace perfbench {

namespace {

void
AddFlash(sdf::nand::FlashArray &flash, Counters &c)
{
    for (uint32_t ch = 0; ch < flash.channel_count(); ++ch) {
        const sdf::nand::Channel &chan = flash.channel(ch);
        c.bus_busy_ns.push_back(static_cast<uint64_t>(chan.bus_busy_ns()));
        c.nand_reads += chan.stats().reads;
        c.nand_programs += chan.stats().programs;
        c.nand_erases += chan.stats().erases;
        c.nand_programmed_bytes += chan.stats().programmed_bytes;
    }
}

}  // namespace

Counters
Snapshot(const std::vector<StackView> &stacks, int64_t sim_ns, uint64_t events)
{
    Counters c;
    c.sim_ns = sim_ns;
    c.events = events;
    for (const StackView &v : stacks) {
        if (v.store != nullptr) {
            const sdf::kv::SliceStats s = v.store->TotalStats();
            c.kv.gets += s.gets;
            c.kv.gets_from_memtable += s.gets_from_memtable;
            c.kv.flushes += s.flushes;
            c.kv.compactions += s.compactions;
            c.kv.compaction_bytes_read += s.compaction_bytes_read;
            c.kv.compaction_bytes_written += s.compaction_bytes_written;
            c.kv.put_stalls += s.put_stalls;
            c.kv.get_retries += s.get_retries;
            for (uint32_t i = 0; i < v.store->slice_count(); ++i) {
                c.slice_compactions.push_back(v.store->slice(i).stats().compactions);
            }
        }
        if (v.layer != nullptr) {
            const sdf::blocklayer::BlockLayerStats &s = v.layer->stats();
            c.bl.inline_erases += s.inline_erases;
            c.bl.background_erases += s.background_erases;
            c.bl.failed_ops += s.failed_ops;
            c.bl.redirected_writes += s.redirected_writes;
        }
        if (v.io != nullptr) {
            c.io_cpu_ns += static_cast<uint64_t>(v.io->cpu_time());
            c.io_requests += v.io->requests();
        }
        if (v.sdf != nullptr) {
            const sdf::core::SdfStats &s = v.sdf->stats();
            c.sdf.read_bytes += s.read_bytes;
            c.sdf.written_bytes += s.written_bytes;
            c.sdf.read_retries += s.read_retries;
            c.irq_completions += v.sdf->irq().completions();
            c.irq_interrupts += v.sdf->irq().interrupts();
            AddFlash(v.sdf->flash(), c);
        }
        if (v.ssd != nullptr) {
            const sdf::ssd::SsdStats &s = v.ssd->stats();
            c.ssd.host_read_bytes += s.host_read_bytes;
            c.ssd.host_pages_written += s.host_pages_written;
            c.ssd.gc_pages_moved += s.gc_pages_moved;
            c.ssd.gc_erases += s.gc_erases;
            c.ssd.swl_migrations += s.swl_migrations;
            c.ssd.cache_hit_pages += s.cache_hit_pages;
            c.ssd_page_bytes = v.ssd->flash().geometry().page_size;
            AddFlash(v.ssd->flash(), c);
        }
    }
    return c;
}

double
RawNandBandwidth(const std::vector<StackView> &stacks, bool read)
{
    double bw = 0.0;
    for (const StackView &v : stacks) {
        sdf::nand::FlashArray *f = v.sdf != nullptr   ? &v.sdf->flash()
                                   : v.ssd != nullptr ? &v.ssd->flash()
                                                      : nullptr;
        if (f == nullptr) continue;
        bw += read ? f->RawReadBandwidth() : f->RawWriteBandwidth();
    }
    return bw;
}

void
AddLayerMetrics(const Counters &a, const Counters &b, double client_ops,
                double client_put_bytes, std::map<std::string, double> &out)
{
    auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
    const double sim_ns = static_cast<double>(b.sim_ns - a.sim_ns);

    out["sim.events_per_op"] = Ratio(d(a.events, b.events), client_ops);

    out["kv.memtable_hit_ratio"] =
        Ratio(d(a.kv.gets_from_memtable, b.kv.gets_from_memtable),
              d(a.kv.gets, b.kv.gets));
    out["kv.flushes"] = d(a.kv.flushes, b.kv.flushes);
    out["kv.compactions"] = d(a.kv.compactions, b.kv.compactions);
    out["kv.compaction_bytes_per_user_byte"] = Ratio(
        d(a.kv.compaction_bytes_written, b.kv.compaction_bytes_written),
        client_put_bytes);
    out["kv.put_stalls"] = d(a.kv.put_stalls, b.kv.put_stalls);
    out["kv.get_retries"] = d(a.kv.get_retries, b.kv.get_retries);

    const double inline_erases = d(a.bl.inline_erases, b.bl.inline_erases);
    out["blocklayer.inline_erase_frac"] = Ratio(
        inline_erases,
        inline_erases + d(a.bl.background_erases, b.bl.background_erases));
    out["blocklayer.redirected_writes"] =
        d(a.bl.redirected_writes, b.bl.redirected_writes);
    out["blocklayer.failed_ops"] = d(a.bl.failed_ops, b.bl.failed_ops);

    out["host.io_stack_us_mean"] =
        Ratio(d(a.io_cpu_ns, b.io_cpu_ns), d(a.io_requests, b.io_requests)) / 1e3;

    out["sdf.read_bytes"] = d(a.sdf.read_bytes, b.sdf.read_bytes);
    out["sdf.written_bytes"] = d(a.sdf.written_bytes, b.sdf.written_bytes);
    out["sdf.read_retries"] = d(a.sdf.read_retries, b.sdf.read_retries);
    out["controller.irq_merge_factor"] =
        Ratio(d(a.irq_completions, b.irq_completions),
              d(a.irq_interrupts, b.irq_interrupts));

    double bus_sum = 0.0, bus_max = 0.0, bus_min = 0.0;
    const size_t chans = std::min(a.bus_busy_ns.size(), b.bus_busy_ns.size());
    for (size_t i = 0; i < chans; ++i) {
        const double u = Ratio(d(a.bus_busy_ns[i], b.bus_busy_ns[i]), sim_ns);
        bus_sum += u;
        bus_max = i == 0 ? u : std::max(bus_max, u);
        bus_min = i == 0 ? u : std::min(bus_min, u);
    }
    out["nand.bus_util_mean"] = chans > 0 ? bus_sum / static_cast<double>(chans) : 0.0;
    out["nand.bus_util_max"] = bus_max;
    out["nand.bus_util_min"] = bus_min;
    out["nand.page_reads"] = d(a.nand_reads, b.nand_reads);
    out["nand.page_programs"] = d(a.nand_programs, b.nand_programs);
    out["nand.block_erases"] = d(a.nand_erases, b.nand_erases);

    out["ssd.gc_pages_moved_per_host_page"] =
        Ratio(d(a.ssd.gc_pages_moved, b.ssd.gc_pages_moved),
              d(a.ssd.host_pages_written, b.ssd.host_pages_written));
    out["ssd.gc_erases"] = d(a.ssd.gc_erases, b.ssd.gc_erases);
    out["ssd.cache_hit_ratio"] =
        b.ssd_page_bytes == 0
            ? 0.0
            : Ratio(d(a.ssd.cache_hit_pages, b.ssd.cache_hit_pages),
                    d(a.ssd.host_read_bytes, b.ssd.host_read_bytes) /
                        b.ssd_page_bytes);
    out["ftl.swl_migrations"] = d(a.ssd.swl_migrations, b.ssd.swl_migrations);
}

double
SumHubCounters(const sdf::obs::Hub &hub, const std::string &suffix)
{
    double v = 0.0;
    for (const auto &[path, value] : hub.metrics().Take().counters) {
        if (path.size() >= suffix.size() &&
            path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
            v += static_cast<double>(value);
        }
    }
    return v;
}

}  // namespace perfbench

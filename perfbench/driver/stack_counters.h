/**
 * @file
 * Cumulative counters read from the stack's public stats accessors, and
 * the per-layer metrics derived from the difference of two snapshots.
 * Works the same on one node or on every node of a cluster.
 */
#ifndef PERFBENCH_STACK_COUNTERS_H
#define PERFBENCH_STACK_COUNTERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "blocklayer/block_layer.h"
#include "host/io_stack.h"
#include "kv/store.h"
#include "sdf/sdf_device.h"
#include "ssd/conventional_ssd.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace perfbench {

/** Non-owning view of one node's layers (null where absent). */
struct StackView
{
    sdf::kv::Store *store = nullptr;
    sdf::blocklayer::BlockLayer *layer = nullptr;
    sdf::host::IoStack *io = nullptr;
    sdf::core::SdfDevice *sdf = nullptr;
    sdf::ssd::ConventionalSsd *ssd = nullptr;
};

/** One snapshot of every counter the benchmark reads, summed over nodes. */
struct Counters
{
    int64_t sim_ns = 0;
    uint64_t events = 0;
    sdf::kv::SliceStats kv;
    std::vector<uint64_t> slice_compactions;  ///< Per slice, all nodes.
    sdf::blocklayer::BlockLayerStats bl;
    uint64_t io_cpu_ns = 0, io_requests = 0;
    sdf::core::SdfStats sdf;
    uint64_t irq_completions = 0, irq_interrupts = 0;
    std::vector<uint64_t> bus_busy_ns;  ///< Per NAND channel, all devices.
    uint64_t nand_reads = 0, nand_programs = 0, nand_erases = 0;
    uint64_t nand_programmed_bytes = 0;
    sdf::ssd::SsdStats ssd;
    uint32_t ssd_page_bytes = 0;
};

Counters Snapshot(const std::vector<StackView> &stacks, int64_t sim_ns,
                  uint64_t events);

/** Raw NAND bandwidth (bytes/s) of all devices, read or write. */
double RawNandBandwidth(const std::vector<StackView> &stacks, bool read);

/**
 * Per-layer metrics from counter deltas over [a, b]. @p client_ops and
 * @p client_put_bytes are the measured phase's client ops and acked
 * payload bytes (the bases of the per-op ratios).
 */
void AddLayerMetrics(const Counters &a, const Counters &b, double client_ops,
                     double client_put_bytes,
                     std::map<std::string, double> &out);

/** Sum of the hub's counters whose path ends in @p suffix. */
double SumHubCounters(const sdf::obs::Hub &hub, const std::string &suffix);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_COUNTERS_H

/**
 * @file
 * The four workloads. Each Run* call is one round: build the system, set
 * it up, run the measured phase, drain, and check the outputs.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "sim/simulator.h"

namespace perfbench {

/** Successful and failed outcomes of one set of client ops. */
struct OpTally
{
    std::vector<double> read_ns, write_ns;  ///< Latencies (ns) of ok ops.
    uint64_t issued = 0, settled = 0, ok = 0;
    uint64_t overloaded = 0, deadline = 0, errors = 0;
    double read_bytes = 0.0, put_bytes = 0.0;

    uint64_t failed() const { return overloaded + deadline + errors; }
};

/** Everything that turns a tally into the end-to-end metrics. */
struct EndToEndInputs
{
    double sim_s = 0.0;           ///< Simulated seconds of the window.
    double max_rate_at_slo = 0.0;
    double raw_read_bw = 0.0;     ///< Bytes/s of NAND, all devices.
    double raw_write_bw = 0.0;
    double nand_programmed_bytes = 0.0;
    /** Bytes write_amp is taken over; < 0 = the tally's acked bytes. */
    double write_amp_base = -1.0;
    uint64_t lost_writes = 0;
    /** NAND traffic is mostly writes: flash_bw_util uses the write side. */
    bool write_dominant = false;
    /** Which ops the latency percentiles cover, for the report. */
    std::string latency_scope = "the measured window";
};

/** Fill the simulated end-to-end metrics of @p r from @p t. */
void FillEndToEnd(Round &r, OpTally &t, const EndToEndInputs &in);

/**
 * Measured-phase driver: run @p sim up to @p until in @p slices equal
 * slices of simulated time, adding each slice's host time to
 * r.chunk_host_s and r.measured_host_s.
 */
void RunMeasured(sdf::sim::Simulator &sim, int64_t until, int slices, Round &r);

/** Print-ready "p50/p99/p999 over n samples" for a sorted sample. */
std::string LatencyLine(const char *what, const std::vector<double> &sorted);

Round RunClusterReadHot(uint64_t seed, bool traced, const std::string &span_path);
Round RunClusterWriteMix(uint64_t seed, bool traced, const std::string &span_path);
Round RunSliceBatchRead(uint64_t seed, bool traced, const std::string &span_path);
Round RunSliceWriteSsd(uint64_t seed, bool traced, const std::string &span_path);

/** Fingerprint of @p workload's generated op stream for @p seed. */
uint64_t OpStreamHash(const std::string &workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H

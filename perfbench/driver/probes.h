/**
 * @file
 * Forwarding decorators the traced run places at two public seams of a
 * single-node stack: core::BlockDevice (between the block layer and the
 * device) and kv::PatchStorage (between the store and the block-layer
 * patch storage). Each call opens a span, forwards synchronously, and
 * wraps the completion so the span closes when it fires. No simulated
 * event is added or moved, so the traced run's simulated metrics equal
 * the untraced run's exactly (the driver checks this).
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <utility>

#include "common.h"
#include "kv/patch_storage.h"
#include "sdf/block_device.h"
#include "sim/simulator.h"

namespace perfbench {

/** Wrap @p done so span @p h closes (and is on the stack) when it fires. */
template <typename Cb>
Cb
CloseOnDone(sdf::sim::Simulator &sim, Tracer &t, uint32_t h, Cb done)
{
    if (!done) {
        // Keep a null completion null: the callee may branch on it.
        t.Close(h, static_cast<int64_t>(sim.Now()));
        return done;
    }
    return Cb([&sim, &t, h, done = std::move(done)](sdf::core::IoStatus st) mutable {
        t.Close(h, static_cast<int64_t>(sim.Now()));
        Tracer::Active on(&t, h);
        if (done) done(st);
    });
}

class ProbedBlockDevice : public sdf::core::BlockDevice
{
  public:
    ProbedBlockDevice(sdf::sim::Simulator &sim, sdf::core::BlockDevice &inner,
                      Tracer &tracer)
        : sim_(sim), inner_(inner), t_(tracer) {}

    const sdf::core::DeviceCaps &caps() const override { return inner_.caps(); }

    void
    Read(uint32_t channel, uint32_t unit, uint64_t offset, uint64_t length,
         sdf::core::IoCallback done, std::vector<uint8_t> *out,
         sdf::obs::IoSpan *span) override
    {
        const uint32_t h = t_.Open("dev.read", Now());
        Tracer::Active on(&t_, h);
        inner_.Read(channel, unit, offset, length,
                    CloseOnDone(sim_, t_, h, std::move(done)), out, span);
    }

    void
    WriteUnit(uint32_t channel, uint32_t unit, sdf::core::IoCallback done,
              const uint8_t *data, sdf::obs::IoSpan *span) override
    {
        const uint32_t h = t_.Open("dev.write_unit", Now());
        Tracer::Active on(&t_, h);
        inner_.WriteUnit(channel, unit, CloseOnDone(sim_, t_, h, std::move(done)),
                         data, span);
    }

    void
    EraseUnit(uint32_t channel, uint32_t unit, sdf::core::IoCallback done,
              sdf::obs::IoSpan *span) override
    {
        const uint32_t h = t_.Open("dev.erase", Now());
        Tracer::Active on(&t_, h);
        inner_.EraseUnit(channel, unit, CloseOnDone(sim_, t_, h, std::move(done)),
                         span);
    }

    sdf::core::UnitState
    unit_state(uint32_t channel, uint32_t unit) const override
    {
        return inner_.unit_state(channel, unit);
    }

    bool ChannelDead(uint32_t channel) const override
    {
        return inner_.ChannelDead(channel);
    }

    void
    DebugForceWritten(uint32_t channel, uint32_t unit) override
    {
        inner_.DebugForceWritten(channel, unit);
    }

  private:
    int64_t Now() const { return static_cast<int64_t>(sim_.Now()); }

    sdf::sim::Simulator &sim_;
    sdf::core::BlockDevice &inner_;
    Tracer &t_;
};

class ProbedPatchStorage : public sdf::kv::PatchStorage
{
  public:
    ProbedPatchStorage(sdf::sim::Simulator &sim, sdf::kv::PatchStorage &inner,
                       Tracer &tracer)
        : sim_(sim), inner_(inner), t_(tracer) {}

    uint64_t patch_bytes() const override { return inner_.patch_bytes(); }
    uint32_t alignment() const override { return inner_.alignment(); }

    void
    PutPatch(uint64_t id, sdf::kv::PatchCallback done, const uint8_t *data,
             int priority) override
    {
        const uint32_t h = t_.Open("kv.patch_put", Now());
        Tracer::Active on(&t_, h);
        inner_.PutPatch(id, CloseOnDone(sim_, t_, h, std::move(done)), data,
                        priority);
    }

    void
    GetRange(uint64_t id, uint64_t offset, uint64_t length,
             sdf::kv::PatchCallback done, std::vector<uint8_t> *out,
             int priority) override
    {
        const uint32_t h = t_.Open("kv.patch_get", Now());
        Tracer::Active on(&t_, h);
        inner_.GetRange(id, offset, length,
                        CloseOnDone(sim_, t_, h, std::move(done)), out, priority);
    }

    void DeletePatch(uint64_t id) override { inner_.DeletePatch(id); }
    std::vector<uint64_t> StoredIds() const override { return inner_.StoredIds(); }
    uint64_t FreePatchSlots() const override { return inner_.FreePatchSlots(); }
    bool DebugInstallPatch(uint64_t id) override { return inner_.DebugInstallPatch(id); }

  private:
    int64_t Now() const { return static_cast<int64_t>(sim_.Now()); }

    sdf::sim::Simulator &sim_;
    sdf::kv::PatchStorage &inner_;
    Tracer &t_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H

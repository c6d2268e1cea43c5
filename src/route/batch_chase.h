// Lockstep batch serving over packed 3-bit next-hop columns.
//
// A scalar chase is a serial dependent chain — each hop's load feeds the
// next hop's address — so a single query runs at load-to-use latency, a
// few cycles per hop, no matter how wide the core is. Chasing k queries
// against the SAME column in lockstep turns that latency bound into a
// throughput bound: 8 independent chains per chunk advance one hop per
// iteration each (SoA lane state: current id, hop count, status), lanes
// retire by mask on delivery or no-route, and the column's precomputed
// hop bound is the single loop bound — any lane still active after
// hopBound() steps has provably diverged (see packed_column.h), so the
// hot loop carries no per-lane step bookkeeping at all.
//
// Two interchangeable engines produce bit-identical results:
//  - chaseBatchScalar: portable 8-lane scalar lockstep (array lanes, no
//    intrinsics — the compiler's ILP does the overlapping);
//  - chaseBatchAvx2: AVX2 gather/mask lanes (one masked 32-bit gather
//    per step resolves all 8 nibbles), compiled in its own -mavx2
//    translation unit and dispatched at runtime via cpuid.
// chaseBatch() picks the widest engine the CPU supports; hosts without
// AVX2 (and builds with MESHRT_DISABLE_AVX2) run the scalar engine.
//
// Status/hops land in SoA output arrays at the queries' indices —
// exactly the shape BatchResult serves — and match the scalar
// chaseColumn byte for byte: same statuses, same hop counts, hops only
// written for delivered lanes. See DESIGN.md section 10.
#pragma once

#include <cstddef>
#include <cstdint>

#include "route/packed_column.h"

namespace meshrt {

/// Chases `count` sources against `column` in 8-lane scalar lockstep.
/// sources[i] are NodeIds (need not be distinct; may equal the
/// destination). Writes status[i] for every i in [0, count) and hops[i]
/// only where delivered. `maxSteps` is the per-chase step bound — pass
/// column.hopBound() (lanes active afterwards are Diverged).
void chaseBatchScalar(const PackedRouteColumn& column, const NodeId* sources,
                      std::size_t count, std::size_t maxSteps,
                      ServeStatus* status, std::int32_t* hops);

/// True when the AVX2 engine is compiled in AND this CPU supports it.
bool chaseBatchSimdAvailable();

/// AVX2 engine with the same contract as chaseBatchScalar. Call only
/// when chaseBatchSimdAvailable(); otherwise it forwards to the scalar
/// engine.
void chaseBatchAvx2(const PackedRouteColumn& column, const NodeId* sources,
                    std::size_t count, std::size_t maxSteps,
                    ServeStatus* status, std::int32_t* hops);

/// Runtime-dispatched batch chase: AVX2 when available, scalar lockstep
/// otherwise.
inline void chaseBatch(const PackedRouteColumn& column, const NodeId* sources,
                       std::size_t count, std::size_t maxSteps,
                       ServeStatus* status, std::int32_t* hops) {
  if (chaseBatchSimdAvailable()) {
    chaseBatchAvx2(column, sources, count, maxSteps, status, hops);
  } else {
    chaseBatchScalar(column, sources, count, maxSteps, status, hops);
  }
}

namespace detail {
/// Defined in batch_chase_avx2.cpp: true iff that TU was compiled with
/// AVX2 enabled (the build adds -mavx2 when the compiler supports it).
bool chaseBatchAvx2Compiled();
}  // namespace detail

}  // namespace meshrt

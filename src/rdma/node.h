// A simulated machine: one RNIC, a core pool, and registered memory.

#ifndef SRC_RDMA_NODE_H_
#define SRC_RDMA_NODE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/obs/catalog.h"
#include "src/rdma/config.h"
#include "src/rdma/memory.h"
#include "src/rdma/nic.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"

namespace rdma {

class Fabric;

// Registered-memory census per node (src/obs/catalog.h), maintained by
// Fabric::{Register,Deregister}Memory, read back through
// Fabric::RegisteredBytes/RegistrationCount and flushed by ~Fabric ({node}).
#define RDMA_MR_STATS(X)                                                                         \
  X(gauge, registered_bytes, "rdma.mr.registered_bytes", always, "bytes registered at teardown") \
  X(counter, registrations, "rdma.mr.registrations", self, "MRs registered")                     \
  X(counter, deregistrations, "rdma.mr.deregistrations", self, "MRs deregistered")

class Node {
 public:
  struct MrStats { OBS_STATS(MrStats, RDMA_MR_STATS) };

  Node(sim::Engine& engine, Fabric* fabric, uint32_t id, std::string name,
       const NicConfig& config, uint64_t seed)
      : fabric_(fabric), id_(id), name_(std::move(name)), nic_(engine, config, seed, name_),
        cpus_(engine, config.cores), worker_core_first_(config.nic_station_cores),
        next_worker_core_(config.nic_station_cores) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  Nic& nic() { return nic_; }
  const Nic& nic() const { return nic_; }
  sim::CpuSet& cpus() { return cpus_; }
  Fabric* fabric() const { return fabric_; }

  // Registers `size` bytes with the NIC (the paper's malloc_buf maps here).
  // The region is owned by the node and remains valid for its lifetime.
  MemoryRegion* RegisterMemory(size_t size, uint32_t access);

  // Opaque per-node service slot: mem::Pool parks the node's shared
  // registered-memory pool here so every consumer on the node draws from one
  // allocator (rdma cannot name mem — the dependency runs the other way).
  const std::shared_ptr<void>& pool_handle() const { return pool_handle_; }
  void set_pool_handle(std::shared_ptr<void> handle) { pool_handle_ = std::move(handle); }

  // Hands out the next compute core for a pinned dispatch worker: round-robin
  // over [NicConfig::nic_station_cores, cores), skipping the cores reserved
  // for the NIC's stations. Wraps when workers outnumber compute cores, so
  // extra workers time-share a core through CpuSet::ComputeOn instead of
  // conjuring phantom parallelism (docs/multicore.md).
  int ReserveWorkerCore() {
    const int core = next_worker_core_;
    ++next_worker_core_;
    if (next_worker_core_ >= cpus_.cores()) {
      next_worker_core_ = worker_core_first_;
    }
    return core;
  }

 private:
  friend class Fabric;

  Fabric* fabric_;
  uint32_t id_;
  std::string name_;
  Nic nic_;
  sim::CpuSet cpus_;
  int worker_core_first_;
  int next_worker_core_;
  std::deque<std::unique_ptr<MemoryRegion>> regions_;
  std::shared_ptr<void> pool_handle_;
  MrStats mr_stats_;
};

}  // namespace rdma

#endif  // SRC_RDMA_NODE_H_

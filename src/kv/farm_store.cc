#include "src/kv/farm_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/kv/common.h"
#include "src/kv/crc64.h"
#include "src/obs/metrics.h"

namespace kv {

namespace {

uint64_t NormalizeHash(uint64_t h) { return h == 0 ? 1 : h; }

}  // namespace

// Slot layout:
//   [u64 key_hash][u16 key_size][u16 value_size][u32 reserved][u64 crc]
//   [key bytes (max_key)][value bytes (max_value)]
// The table is num_buckets x slots_per_bucket slots, plus `neighborhood`
// extra trailing buckets so neighborhoods never wrap.
FarmStore::FarmStore(rdma::Node& node, const FarmConfig& config)
    : config_(config), node_name_(node.name()) {
  if (config_.num_buckets == 0 || config_.neighborhood <= 0 || config_.slots_per_bucket <= 0) {
    throw std::invalid_argument("farm store: bad geometry");
  }
  cell_bytes_ = kCellHeaderBytes + config_.max_key_bytes + config_.max_value_bytes;
  const uint64_t total_buckets =
      config_.num_buckets + static_cast<uint64_t>(config_.neighborhood);
  // The cell array is a span inside the node's shared registered pool, so
  // store churn recycles arenas instead of re-registering.
  pool_ = mem::Pool::Shared(node);
  cells_span_ = pool_->Alloc(total_buckets * static_cast<uint64_t>(config_.slots_per_bucket) *
                             cell_bytes_);
}

FarmStore::~FarmStore() {
  pool_->Free(cells_span_);
  obs::Flush(obs::MetricsRegistry::Default(), {{"store", "farm"}, {"node", node_name_}}, stats_);
}

FarmStore::View FarmStore::view() const {
  return View{cells_span_.mr->remote_key(), config_.num_buckets, config_.neighborhood,
              config_.slots_per_bucket, cell_bytes_, cells_span_.offset};
}

FarmStore::DecodedCell FarmStore::DecodeCell(std::span<const std::byte> bytes) {
  DecodedCell cell;
  std::memcpy(&cell.key_hash, bytes.data(), 8);
  std::memcpy(&cell.key_size, bytes.data() + 8, 2);
  std::memcpy(&cell.value_size, bytes.data() + 10, 2);
  std::memcpy(&cell.crc, bytes.data() + 16, 8);
  return cell;
}

FarmStore::DecodedCell FarmStore::LoadCell(uint64_t slot_index) const {
  return DecodeCell(cells_bytes().subspan(slot_index * cell_bytes_, kCellHeaderBytes));
}

void FarmStore::StoreCellHeader(uint64_t slot_index, const DecodedCell& cell) {
  std::byte* p = cells_bytes().data() + slot_index * cell_bytes_;
  std::memcpy(p, &cell.key_hash, 8);
  std::memcpy(p + 8, &cell.key_size, 2);
  std::memcpy(p + 10, &cell.value_size, 2);
  const uint32_t reserved = 0;
  std::memcpy(p + 12, &reserved, 4);
  std::memcpy(p + 16, &cell.crc, 8);
}

bool FarmStore::KeyMatches(uint64_t slot_index, const DecodedCell& cell,
                           std::span<const std::byte> key) const {
  if (cell.key_size != key.size()) {
    return false;
  }
  return std::memcmp(cells_bytes().data() + slot_index * cell_bytes_ + kCellHeaderBytes,
                     key.data(), key.size()) == 0;
}

int64_t FarmStore::FindSlot(uint64_t key_hash, std::span<const std::byte> key) const {
  const uint64_t home = Home(key_hash);
  const uint64_t spb = static_cast<uint64_t>(config_.slots_per_bucket);
  for (int b = 0; b < config_.neighborhood; ++b) {
    for (uint64_t s = 0; s < spb; ++s) {
      const uint64_t idx = (home + static_cast<uint64_t>(b)) * spb + s;
      const DecodedCell cell = LoadCell(idx);
      if (!cell.empty() && cell.key_hash == key_hash && KeyMatches(idx, cell, key)) {
        return static_cast<int64_t>(idx);
      }
    }
  }
  return -1;
}

int64_t FarmStore::MakeRoomInNeighborhood(uint64_t home) {
  // Hopscotch displacement, plan-then-commit: linear-probe buckets for a
  // free slot and *plan* a chain of slot moves walking it back into the
  // neighborhood. Only a complete chain is committed — partial chains would
  // shove residents to the far edge of their neighborhoods and poison every
  // later attempt.
  const uint64_t h = static_cast<uint64_t>(config_.neighborhood);
  const uint64_t spb = static_cast<uint64_t>(config_.slots_per_bucket);
  const uint64_t bucket_end = config_.num_buckets + h;
  const uint64_t probe_limit = std::min(home + 4096, bucket_end);
  for (uint64_t probe = home; probe < probe_limit; ++probe) {
    int64_t free_slot = -1;
    for (uint64_t s = 0; s < spb; ++s) {
      if (LoadCell(probe * spb + s).empty()) {
        free_slot = static_cast<int64_t>(probe * spb + s);
        break;
      }
    }
    if (free_slot < 0) {
      continue;
    }
    std::vector<std::pair<uint64_t, uint64_t>> moves;  // (from slot, to slot)
    uint64_t hole = static_cast<uint64_t>(free_slot);
    bool stuck = false;
    while (hole / spb >= home + h && !stuck) {
      stuck = true;
      const uint64_t hole_bucket = hole / spb;
      // A resident of any earlier bucket within H of the hole may move in,
      // provided the hole bucket is still inside ITS neighborhood. Same-
      // bucket moves don't advance the hole and are skipped.
      for (uint64_t cb = hole_bucket - h + 1; cb < hole_bucket && stuck; ++cb) {
        for (uint64_t cs = 0; cs < spb; ++cs) {
          const uint64_t ci = cb * spb + cs;
          const DecodedCell resident = LoadCell(ci);
          if (resident.empty()) {
            continue;
          }
          if (hole_bucket < Home(resident.key_hash) + h) {
            moves.emplace_back(ci, hole);
            hole = ci;
            stuck = false;
            break;
          }
        }
      }
    }
    if (stuck) {
      continue;  // this free slot cannot be walked back; try the next bucket
    }
    // Commit the chain in planned order; each move fills the current hole.
    std::byte* base = cells_bytes().data();
    for (const auto& [from, to] : moves) {
      std::memcpy(base + to * cell_bytes_, base + from * cell_bytes_, cell_bytes_);
      StoreCellHeader(from, DecodedCell{});
      ++stats_.displacements;
    }
    return static_cast<int64_t>(hole);
  }
  return -1;  // no free slot can be walked into the neighborhood
}

std::optional<FarmStore::PendingPut> FarmStore::StageCell(std::span<const std::byte> key,
                                                          std::span<const std::byte> value) {
  if (key.size() > config_.max_key_bytes || value.size() > config_.max_value_bytes) {
    throw std::invalid_argument("farm store: key/value exceeds cell capacity");
  }
  const uint64_t key_hash = NormalizeHash(HashBytes(key));
  const uint64_t spb = static_cast<uint64_t>(config_.slots_per_bucket);
  int64_t idx = FindSlot(key_hash, key);
  if (idx >= 0) {
    ++stats_.updates;
  } else {
    const uint64_t home = Home(key_hash);
    idx = -1;
    for (int b = 0; b < config_.neighborhood && idx < 0; ++b) {
      for (uint64_t s = 0; s < spb; ++s) {
        const uint64_t slot = (home + static_cast<uint64_t>(b)) * spb + s;
        if (LoadCell(slot).empty()) {
          idx = static_cast<int64_t>(slot);
          break;
        }
      }
    }
    if (idx < 0) {
      idx = MakeRoomInNeighborhood(home);
    }
    if (idx < 0) {
      ++stats_.failed_inserts;
      return std::nullopt;
    }
    ++stats_.inserts;
    ++size_;
  }

  // Phase 1: payload bytes land now; the header (with its CRC) follows at
  // PublishCell. In between the cell is torn.
  const size_t data_off = static_cast<uint64_t>(idx) * cell_bytes_ + kCellHeaderBytes;
  rdma::CopyBytes(cells_bytes().subspan(data_off, key.size()), key);
  rdma::CopyBytes(cells_bytes().subspan(data_off + key.size(), value.size()), value);

  PendingPut pending;
  pending.cell_index = static_cast<uint64_t>(idx);
  pending.header.key_hash = key_hash;
  pending.header.key_size = static_cast<uint16_t>(key.size());
  pending.header.value_size = static_cast<uint16_t>(value.size());
  pending.header.crc = Crc64(cells_bytes().subspan(data_off, key.size() + value.size()));
  return pending;
}

void FarmStore::PublishCell(const PendingPut& pending) {
  StoreCellHeader(pending.cell_index, pending.header);
}

bool FarmStore::Put(std::span<const std::byte> key, std::span<const std::byte> value) {
  auto pending = StageCell(key, value);
  if (!pending.has_value()) {
    return false;
  }
  PublishCell(*pending);
  return true;
}

std::optional<std::vector<std::byte>> FarmStore::Get(std::span<const std::byte> key) const {
  const uint64_t key_hash = NormalizeHash(HashBytes(key));
  const int64_t idx = FindSlot(key_hash, key);
  if (idx < 0) {
    return std::nullopt;
  }
  const DecodedCell cell = LoadCell(static_cast<uint64_t>(idx));
  std::vector<std::byte> value(cell.value_size);
  rdma::CopyBytes(value,
                  cells_bytes().subspan(
                      static_cast<uint64_t>(idx) * cell_bytes_ + kCellHeaderBytes + cell.key_size,
                      cell.value_size));
  return value;
}

bool FarmStore::Erase(std::span<const std::byte> key) {
  const uint64_t key_hash = NormalizeHash(HashBytes(key));
  const int64_t idx = FindSlot(key_hash, key);
  if (idx < 0) {
    return false;
  }
  StoreCellHeader(static_cast<uint64_t>(idx), DecodedCell{});
  --size_;
  return true;
}

// ---- Server ---------------------------------------------------------------------

FarmServer::FarmServer(rdma::Fabric& fabric, rdma::Node& node, FarmConfig config)
    : config_([&config] {
        config.channel_options.force_mode = rfp::RfpOptions::ForceMode::kForceReply;
        return config;
      }()),
      rpc_(fabric, node, config_.server_threads, config_.server_options),
      store_(node, config_),
      put_lock_(fabric.engine()) {
  RegisterHandlers();
}

void FarmServer::RegisterHandlers() {
  rpc_.RegisterAsyncHandler(
      kRpcPut,
      [this](const rfp::HandlerContext&, std::span<const std::byte> req,
             std::span<std::byte> resp) -> sim::Task<rfp::HandlerResult> {
        const auto put = DecodePut(req);
        if (!put.has_value()) {
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), 0};
        }
        sim::Engine& engine = rpc_.node().fabric()->engine();
        co_await put_lock_.Lock();
        const auto pending = store_.StageCell(put->key, put->value);
        if (!pending.has_value()) {
          put_lock_.Unlock();
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), 0};
        }
        const auto window = static_cast<sim::Time>(
            config_.race_window_fraction * static_cast<double>(config_.put_process_ns));
        co_await engine.Sleep(window);
        store_.PublishCell(*pending);
        put_lock_.Unlock();
        co_return rfp::HandlerResult{EncodeStatus(resp, Status::kOk),
                                     config_.put_process_ns - window};
      });
}

// ---- Client ---------------------------------------------------------------------

FarmClient::FarmClient(rdma::Fabric& fabric, rdma::Node& client_node, FarmServer& server,
                       int put_thread)
    : server_(server), view_(server.view()) {
  auto [cqp, sqp] = fabric.ConnectRc(client_node, server.node());
  (void)sqp;
  qp_ = cqp;
  pool_ = mem::Pool::Shared(client_node);
  read_span_ = pool_->Alloc(
      view_.cell_bytes * static_cast<size_t>(view_.neighborhood * view_.slots_per_bucket));
  rfp::Channel* channel =
      server.rpc().AcceptChannel(client_node, server.config().channel_options, put_thread);
  put_stub_ = std::make_unique<rfp::RpcClient>(channel);
  scratch_.resize(server.config().channel_options.max_message_bytes);
}

FarmClient::~FarmClient() { pool_->Free(read_span_); }

sim::Task<std::optional<size_t>> FarmClient::Get(std::span<const std::byte> key,
                                                 std::span<std::byte> value_out) {
  sim::Engine& engine = server_.node().fabric()->engine();
  const sim::Time start = engine.now();
  const uint64_t key_hash = [&] {
    const uint64_t h = HashBytes(key);
    return h == 0 ? 1 : h;
  }();
  const uint64_t home = key_hash % view_.num_buckets;
  const int slots = view_.neighborhood * view_.slots_per_bucket;
  const uint32_t read_bytes = static_cast<uint32_t>(view_.cell_bytes * static_cast<size_t>(slots));
  const size_t home_offset =
      home * static_cast<uint64_t>(view_.slots_per_bucket) * view_.cell_bytes;

  ++stats_.gets;
  for (int attempt = 0; attempt < server_.config().max_get_retries; ++attempt) {
    // ONE one-sided READ covering the whole neighborhood (FaRM's pattern).
    rdma::WorkCompletion wc = co_await qp_->Read(*read_span_.mr, read_span_.offset, view_.rkey,
                                                 view_.base + home_offset, read_bytes);
    if (!wc.ok()) {
      throw std::runtime_error("farm: neighborhood read failed");
    }
    ++stats_.neighborhood_reads;
    stats_.bytes_read += read_bytes;

    bool torn = false;
    for (int i = 0; i < slots; ++i) {
      const auto cell_span =
          read_buf().subspan(static_cast<size_t>(i) * view_.cell_bytes, view_.cell_bytes);
      const FarmStore::DecodedCell cell = FarmStore::DecodeCell(cell_span);
      if (cell.empty() || cell.key_hash != key_hash) {
        continue;
      }
      const auto record =
          cell_span.subspan(FarmStore::kCellHeaderBytes,
                            static_cast<size_t>(cell.key_size) + cell.value_size);
      if (Crc64(record) != cell.crc) {
        ++stats_.crc_failures;
        torn = true;
        break;
      }
      if (cell.key_size != key.size() ||
          std::memcmp(record.data(), key.data(), key.size()) != 0) {
        continue;  // full-hash collision within the neighborhood
      }
      if (cell.value_size > value_out.size()) {
        throw std::length_error("farm: value larger than output buffer");
      }
      rdma::CopyBytes(value_out.subspan(0, cell.value_size),
                      record.subspan(cell.key_size, cell.value_size));
      stats_.bytes_useful += key.size() + cell.value_size;
      get_latency_.Record(engine.now() - start);
      co_return cell.value_size;
    }
    if (!torn) {
      ++stats_.not_found;
      get_latency_.Record(engine.now() - start);
      co_return std::nullopt;
    }
    ++stats_.retries;
  }
  throw std::runtime_error("farm: GET exceeded retry budget");
}

sim::Task<bool> FarmClient::Put(std::span<const std::byte> key,
                                std::span<const std::byte> value) {
  const size_t req = EncodePut(scratch_, key, value);
  const size_t n = co_await put_stub_->Call(
      kRpcPut, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++stats_.puts;
  co_return n >= 1 &&
      DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) == Status::kOk;
}

}  // namespace kv

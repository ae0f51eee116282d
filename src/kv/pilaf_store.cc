#include "src/kv/pilaf_store.h"

#include <cstring>
#include <stdexcept>

#include "src/kv/common.h"
#include "src/kv/crc64.h"
#include "src/obs/metrics.h"

namespace kv {

PilafServer::PilafServer(rdma::Fabric& fabric, rdma::Node& node, PilafConfig config)
    : config_([&config] {
        // Pilaf serves PUT results by replying; fetching would be pointless
        // for a path that exists precisely because GETs bypass the CPU.
        config.channel_options.force_mode = rfp::RfpOptions::ForceMode::kForceReply;
        return config;
      }()),
      rpc_(fabric, node, config_.server_threads, config_.server_options),
      table_(node, config_.num_slots, config_.extent_bytes, config_.seed),
      put_lock_(fabric.engine()) {
  RegisterHandlers();
}

void PilafServer::RegisterHandlers() {
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
        // Two-phase update: extent bytes land first, the slot (with its new
        // CRC) is published only after the race window elapses. One-sided
        // readers in between see torn data and must retry.
        const auto pending = table_.StageExtent(put->key, put->value);
        if (!pending.has_value()) {
          put_lock_.Unlock();
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), 0};
        }
        const auto window =
            static_cast<sim::Time>(config_.race_window_fraction *
                                   static_cast<double>(config_.put_process_ns));
        co_await engine.Sleep(window);
        table_.PublishSlot(*pending);
        put_lock_.Unlock();
        co_return rfp::HandlerResult{EncodeStatus(resp, Status::kOk),
                                     config_.put_process_ns - window};
      });
}

PilafClient::PilafClient(rdma::Fabric& fabric, rdma::Node& client_node, PilafServer& server,
                         int put_thread)
    : server_(server), view_(server.view()) {
  auto [cqp, sqp] = fabric.ConnectRc(client_node, server.node());
  (void)sqp;
  qp_ = cqp;
  pool_ = mem::Pool::Shared(client_node);
  read_span_ = pool_->Alloc(CuckooTable::kSlotBytes + 2 * (UINT16_MAX + 1));
  rfp::Channel* channel = server.rpc().AcceptChannel(
      client_node, server.config().channel_options, put_thread);
  put_stub_ = std::make_unique<rfp::RpcClient>(channel);
  scratch_.resize(server.config().channel_options.max_message_bytes);
}

PilafClient::~PilafClient() {
  pool_->Free(read_span_);
  obs::Flush(obs::MetricsRegistry::Default(),
             {{"store", "pilaf"}, {"client", qp_->local_node()->name()}}, stats_);
}

sim::Task<std::optional<size_t>> PilafClient::Get(std::span<const std::byte> key,
                                                  std::span<std::byte> value_out) {
  sim::Engine& engine = server_.node().fabric()->engine();
  const sim::Time start = engine.now();
  const uint64_t key_hash = [&] {
    const uint64_t h = HashBytes(key);
    return h == 0 ? 1 : h;
  }();
  uint64_t positions[CuckooTable::kWays];
  CuckooTable::Positions(key_hash, view_.num_slots, positions);

  ++stats_.gets;
  for (int attempt = 0; attempt < server_.config().max_get_retries; ++attempt) {
    bool torn = false;
    for (uint64_t pos : positions) {
      // Probe one candidate slot (one-sided READ of 24 bytes).
      rdma::WorkCompletion wc =
          co_await qp_->Read(*read_span_.mr, read_span_.offset, view_.meta_rkey,
                             view_.meta_base + CuckooTable::SlotOffset(pos),
                             CuckooTable::kSlotBytes);
      if (!wc.ok()) {
        throw std::runtime_error("pilaf: slot read failed");
      }
      ++stats_.slot_reads;
      const CuckooTable::DecodedSlot slot =
          CuckooTable::DecodeSlot(read_buf().subspan(0, CuckooTable::kSlotBytes));
      if (slot.empty() || slot.key_hash != key_hash) {
        ++stats_.hash_misses;
        continue;
      }
      // Fetch the record the slot points to (second one-sided READ).
      const uint32_t record_len = slot.key_size + slot.value_size;
      rdma::WorkCompletion wc2 = co_await qp_->Read(
          *read_span_.mr, read_span_.offset + CuckooTable::kSlotBytes, view_.extent_rkey,
          view_.extent_base + slot.extent_offset, record_len);
      if (!wc2.ok()) {
        throw std::runtime_error("pilaf: extent read failed");
      }
      ++stats_.extent_reads;
      const auto record = read_buf().subspan(CuckooTable::kSlotBytes, record_len);
      if (Crc64(record) != slot.crc) {
        // A concurrent PUT tore this entry: restart the whole lookup.
        ++stats_.crc_failures;
        torn = true;
        break;
      }
      if (slot.key_size != key.size() ||
          std::memcmp(record.data(), key.data(), key.size()) != 0) {
        ++stats_.hash_misses;  // full-hash collision: keep probing
        continue;
      }
      if (slot.value_size > value_out.size()) {
        throw std::length_error("pilaf: value larger than output buffer");
      }
      rdma::CopyBytes(value_out.subspan(0, slot.value_size),
                      record.subspan(slot.key_size, slot.value_size));
      stats_.get_latency.Record(engine.now() - start);
      co_return slot.value_size;
    }
    if (!torn) {
      ++stats_.not_found;
      stats_.get_latency.Record(engine.now() - start);
      co_return std::nullopt;
    }
    ++stats_.retries;
  }
  throw std::runtime_error("pilaf: GET exceeded retry budget (livelock?)");
}

sim::Task<bool> PilafClient::Put(std::span<const std::byte> key,
                                 std::span<const std::byte> value) {
  const size_t req = EncodePut(scratch_, key, value);
  const size_t n = co_await put_stub_->Call(
      kRpcPut, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++stats_.puts;
  co_return n >= 1 &&
      DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) == Status::kOk;
}

}  // namespace kv

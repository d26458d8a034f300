#include "net/rpc.hpp"

#include <algorithm>

namespace wsched::net {

namespace {
constexpr std::uint64_t kRpcBackoffStream = 0x4E7004;
/// Initial ring size; it doubles while more calls than this overlap.
constexpr std::size_t kInitialCallSlots = 16;
}  // namespace

Rpc::Rpc(sim::Engine& engine, Network& network, Options options,
         std::uint64_t seed)
    : engine_(engine),
      network_(network),
      options_(options),
      rng_(seed, kRpcBackoffStream),
      calls_(kInitialCallSlots) {}

std::uint64_t Rpc::call(int src, int dst, Delivery on_deliver,
                        Delivery on_fail, std::uint64_t tag) {
  const std::uint64_t id = next_id_++;
  ++calls_started_;
  if (slot(id).id != 0) grow(id);
  slot(id) = {id, tag, src, dst, /*attempt=*/1, /*delivered=*/false,
              on_deliver, on_fail};
  ++open_;
  transmit(id, 1);
  return id;
}

void Rpc::grow(std::uint64_t id) {
  // Live ids lie in [oldest, id]; a ring longer than that window gives
  // each of them a slot of its own.
  std::uint64_t oldest = id;
  for (const Call& call : calls_)
    if (call.id != 0) oldest = std::min(oldest, call.id);
  std::size_t size = calls_.size();
  while (size <= id - oldest) size *= 2;
  std::vector<Call> ring(size);
  for (const Call& call : calls_)
    if (call.id != 0)
      ring[static_cast<std::size_t>(call.id) & (size - 1)] = call;
  calls_.swap(ring);
}

void Rpc::arm(Time delay, std::uint64_t id, int attempt, bool retransmit) {
  Timer* timer = timers_.acquire();
  timer->rpc = this;
  timer->id = id;
  timer->attempt = attempt;
  timer->retransmit = retransmit;
  engine_.schedule_call_after(delay, &Rpc::fire, timer);
}

void Rpc::fire(void* ctx) {
  Timer& timer = *static_cast<Timer*>(ctx);
  Rpc& rpc = *timer.rpc;
  const std::uint64_t id = timer.id;
  const int attempt = timer.attempt;
  const bool retransmit = timer.retransmit;
  rpc.timers_.release(&timer);
  if (retransmit)
    rpc.transmit(id, attempt);
  else
    rpc.on_timeout(id, attempt);
}

void Rpc::data_landed(void* ctx, std::uint64_t id) {
  static_cast<Rpc*>(ctx)->on_data(id);
}

void Rpc::ack_landed(void* ctx, std::uint64_t id) {
  Rpc& rpc = *static_cast<Rpc*>(ctx);
  if (Call* call = rpc.find(id)) rpc.end(*call);
}

void Rpc::transmit(std::uint64_t id, int attempt) {
  const Call* call = find(id);
  if (call == nullptr) return;  // acked or given up while backing off
  network_.send(call->src, call->dst, MsgKind::kData,
                {&Rpc::data_landed, this, id});
  arm(options_.timeout, id, attempt, /*retransmit=*/false);
}

void Rpc::on_data(std::uint64_t id) {
  Call* call = find(id);
  if (!dedup_.claim(id)) {
    // A copy already executed here; drop this one and just re-ack so the
    // sender can stop retransmitting.
    ++duplicates_;
    if (call != nullptr) {
      if (hooks_.spans != nullptr && call->tag != 0)
        hooks_.spans->note(call->tag, "rpc-dup", engine_.now());
      if (hooks_.trace != nullptr)
        hooks_.trace->instant(obs::Category::kNet, "rpc-dup",
                              hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                              {{"call", id}});
      network_.send(call->dst, call->src, MsgKind::kControl,
                    {&Rpc::ack_landed, this, id});
    }
    return;
  }
  if (call == nullptr) return;  // sender already gave up; nothing to run
  call->delivered = true;
  network_.send(call->dst, call->src, MsgKind::kControl,
                {&Rpc::ack_landed, this, id});
  // The callback may reenter the Rpc (failover re-dispatch) and move the
  // ring — copy it out and touch no state afterwards.
  const Delivery deliver = call->on_deliver;
  if (deliver.fn != nullptr) deliver();
}

void Rpc::on_timeout(std::uint64_t id, int attempt) {
  Call* call = find(id);
  if (call == nullptr) return;  // completed in the meantime
  if (attempt != call->attempt) return;  // stale timeout of an older attempt
  if (call->attempt < options_.max_attempts) {
    call->attempt += 1;
    ++retries_;
    if (hooks_.spans != nullptr && call->tag != 0)
      hooks_.spans->note(call->tag, "rpc-retransmit", engine_.now(),
                         static_cast<std::uint64_t>(call->attempt));
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "rpc-retry",
                            hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                            {{"call", id}, {"attempt", call->attempt}});
    const Time delay =
        overload::backoff_delay(options_.backoff, attempt, &rng_);
    arm(delay, id, call->attempt, /*retransmit=*/true);
    return;
  }
  // Out of attempts. Only a call whose data never arrived anywhere fails
  // over; a delivered-but-unacked call already executed.
  const bool delivered = call->delivered;
  const Delivery fail = call->on_fail;
  end(*call);
  if (delivered) return;
  ++failures_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kNet, "rpc-fail", hooks_.cluster_pid,
                          obs::kLaneNet, engine_.now(), {{"call", id}});
  if (fail.fn != nullptr) fail();
}

}  // namespace wsched::net

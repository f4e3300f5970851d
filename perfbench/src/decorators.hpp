// Decorators that time the library's layer interfaces from outside:
// an mp::Transport, a Workload and an rt::TicketCounter, each
// forwarding every call to the wrapped object inside a trace Scope.
// They exist only in traced loops; untraced loops hand the runtime
// the undecorated objects.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lss/mp/transport.hpp"
#include "lss/rt/counter.hpp"
#include "lss/workload/workload.hpp"
#include "trace.hpp"

namespace pb {

/// Which end of the master/worker star an endpoint is; picks the
/// span names (mp.master.* or mp.worker.*).
enum class Role { Master, Worker };

class TracedTransport final : public lss::mp::Transport {
 public:
  TracedTransport(lss::mp::Transport& inner, Role role)
      : inner_(inner),
        send_(role == Role::Master ? Name::MasterSend : Name::WorkerSend),
        recv_(role == Role::Master ? Name::MasterRecv : Name::WorkerRecv),
        poll_(role == Role::Master ? Name::MasterPoll : Name::WorkerPoll),
        idle_(role == Role::Master ? Name::MasterIdlePoll
                                   : Name::WorkerIdlePoll) {}

  int size() const override { return inner_.size(); }
  std::string kind() const override { return inner_.kind(); }

  void send(int from, int to, int tag, lss::mp::Buffer payload) override {
    Scope s(send_);
    s.bytes(static_cast<std::int64_t>(payload.size()));
    inner_.send(from, to, tag, std::move(payload));
  }
  void sendv(int from, int to, int tag,
             std::span<const std::span<const std::byte>> parts) override {
    Scope s(send_);
    std::int64_t n = 0;
    for (const auto& p : parts) n += static_cast<std::int64_t>(p.size());
    s.bytes(n);
    inner_.sendv(from, to, tag, parts);
  }
  lss::mp::Message recv(int rank, int source, int tag) override {
    Scope s(recv_);
    return inner_.recv(rank, source, tag);
  }
  std::optional<lss::mp::Message> recv_for(
      int rank, std::chrono::steady_clock::duration timeout, int source,
      int tag) override {
    Scope s(recv_);
    return inner_.recv_for(rank, timeout, source, tag);
  }
  std::optional<lss::mp::Message> try_recv(int rank, int source,
                                           int tag) override {
    Scope s(poll_);
    auto m = inner_.try_recv(rank, source, tag);
    if (!m) s.idle(idle_);
    return m;
  }
  void drain_into(int rank, std::vector<lss::mp::Message>& out, int source,
                  int tag) override {
    Scope s(poll_);
    inner_.drain_into(rank, out, source, tag);
    if (out.empty()) s.idle(idle_);
  }
  int peer_protocol(int rank) const override {
    return inner_.peer_protocol(rank);
  }
  bool probe(int rank, int source, int tag) const override {
    return inner_.probe(rank, source, tag);
  }
  bool peer_alive(int rank) const override { return inner_.peer_alive(rank); }
  void close_peer(int rank) override { inner_.close_peer(rank); }

 private:
  lss::mp::Transport& inner_;
  const Name send_, recv_, poll_, idle_;
};

class TracedWorkload final : public lss::Workload {
 public:
  explicit TracedWorkload(std::shared_ptr<lss::Workload> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  lss::Index size() const override { return inner_->size(); }
  double cost(lss::Index i) const override { return inner_->cost(i); }
  void execute(lss::Index i) override {
    Scope s(Name::Execute);
    inner_->execute(i);
  }

 private:
  std::shared_ptr<lss::Workload> inner_;
};

class TracedCounter final : public lss::rt::TicketCounter {
 public:
  explicit TracedCounter(std::shared_ptr<lss::rt::TicketCounter> inner)
      : inner_(std::move(inner)) {}

  std::optional<std::uint64_t> fetch_add(std::uint64_t n) override {
    Scope s(Name::Claim);
    return inner_->fetch_add(n);
  }
  std::uint64_t load() const override { return inner_->load(); }
  void kill() override { inner_->kill(); }
  std::string kind() const override { return inner_->kind(); }

 private:
  std::shared_ptr<lss::rt::TicketCounter> inner_;
};

}  // namespace pb

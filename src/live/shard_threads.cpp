#include "live/shard_threads.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <string>

namespace indiss::live {

ShardThreads::ShardThreads(const LiveTransport& front,
                           std::size_t ring_capacity)
    : front_config_(front.config()), ring_capacity_(ring_capacity) {}

ShardThreads::~ShardThreads() {
  stop();
  for (auto& lane : lanes_) {
    if (lane->wake_fd >= 0) ::close(lane->wake_fd);
  }
}

transport::Transport& ShardThreads::transport(std::size_t index) {
  while (lanes_.size() <= index) {
    auto lane = std::make_unique<Lane>(ring_capacity_);
    lane->loop = std::make_unique<EventLoop>();
    LiveConfig config = front_config_;
    config.name += "#" + std::to_string(lanes_.size());
    config.seed = front_config_.seed + 1 + lanes_.size();
    lane->transport = std::make_unique<LiveTransport>(*lane->loop, config);
    lane->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    lanes_.push_back(std::move(lane));
  }
  return *lanes_[index]->transport;
}

void ShardThreads::start(
    std::span<const std::unique_ptr<core::Indiss>> shards) {
  if (running_) return;
  running_ = true;
  // The wakeup handler is the thread's only entry point for work; it is
  // registered here, before the thread exists.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane* lane = lanes_[i].get();
    core::Indiss* shard = shards[i].get();
    lane->loop->watch(lane->wake_fd, EPOLLIN, [lane, shard](std::uint32_t) {
      std::uint64_t count = 0;
      [[maybe_unused]] ssize_t r =
          ::read(lane->wake_fd, &count, sizeof(count));
      Item item;
      while (lane->ring.poll(item)) shard->ingest(item.sdp, item.datagram);
    });
    lane->thread = std::thread([lane]() { lane->loop->run(); });
  }
}

void ShardThreads::deliver(std::size_t index, core::SdpId sdp,
                           const net::Datagram& datagram) {
  Lane& lane = *lanes_[index];
  if (lane.ring.offer(Item{sdp, datagram})) wake(lane);
}

void ShardThreads::stop() {
  if (!running_) return;
  running_ = false;
  // EventLoop::stop() is cross-thread safe (atomic flag); the eventfd write
  // pops the loop out of epoll_wait so it notices promptly.
  for (auto& lane : lanes_) {
    lane->loop->stop();
    wake(*lane);
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  for (auto& lane : lanes_) lane->loop->unwatch(lane->wake_fd);
}

void ShardThreads::wake(Lane& lane) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(lane.wake_fd, &one, sizeof(one));
}

std::uint64_t ShardThreads::dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->ring.dropped();
  return total;
}

std::uint64_t ShardThreads::accepted() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->ring.accepted();
  return total;
}

std::uint64_t ShardThreads::consumed() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->ring.consumed();
  return total;
}

}  // namespace indiss::live

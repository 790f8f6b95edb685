// The benchmark over a container that silently drops one push in
// kDropEvery. Every workload's oracle must catch it: check_seeded_bug.py
// runs this binary and expects a failed, non-zero-exit run.
#include <atomic>
#include <cstdint>
#include <optional>

#include "cli.hpp"

namespace {

constexpr std::uint64_t kDropEvery = 1000;

class DropEveryNth {
public:
    DropEveryNth(const sec::Config& cfg, sec::reclaim::EpochDomain& domain)
        : inner_(cfg, domain) {}

    bool push(const perfbench::Value& v) {
        if (pushes_.fetch_add(1, std::memory_order_relaxed) % kDropEvery ==
            kDropEvery - 1) {
            return true;  // reported as done, never stored
        }
        return inner_.push(v);
    }
    std::optional<perfbench::Value> pop() { return inner_.pop(); }
    std::optional<perfbench::Value> peek() const { return inner_.peek(); }
    sec::StatsSnapshot stats() const { return inner_.stats(); }

private:
    perfbench::SecEbrStack inner_;
    std::atomic<std::uint64_t> pushes_{0};
};

}  // namespace

int main(int argc, char** argv) {
    return perfbench::run_main<DropEveryNth>(argc, argv);
}

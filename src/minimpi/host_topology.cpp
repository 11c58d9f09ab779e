#include "minimpi/host_topology.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/parse.hpp"

namespace minimpi {

std::string_view pin_policy_name(PinPolicy p) noexcept {
    switch (p) {
        case PinPolicy::None:
            return "none";
        case PinPolicy::Compact:
            return "compact";
        case PinPolicy::Scatter:
            return "scatter";
    }
    return "?";
}

std::optional<PinPolicy> pin_policy_from_string(std::string_view name) noexcept {
    return hdls::util::from_name(
        name, std::array{PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter},
        pin_policy_name);
}

HostTopology HostTopology::detect() {
    std::map<int, std::vector<int>> by_package;
#if defined(__linux__)
    const int ncpu = static_cast<int>(std::thread::hardware_concurrency());
    for (int cpu = 0; cpu < std::max(ncpu, 1); ++cpu) {
        std::ifstream f("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                        "/topology/physical_package_id");
        int pkg = -1;
        if (!(f >> pkg)) {
            continue;
        }
        by_package[pkg].push_back(cpu);
    }
#endif
    HostTopology t;
    if (by_package.empty()) {
        // Non-Linux, or sysfs hidden by the container runtime: pretend one
        // socket spanning every CPU, so Compact == Scatter == core pinning.
        const int ncpu = std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
        HostSocket s;
        s.id = 0;
        s.cpus.resize(static_cast<std::size_t>(ncpu));
        for (int c = 0; c < ncpu; ++c) {
            s.cpus[static_cast<std::size_t>(c)] = c;
        }
        t.sockets_.push_back(std::move(s));
        return t;
    }
    for (auto& [pkg, cpus] : by_package) {
        std::sort(cpus.begin(), cpus.end());
        t.sockets_.push_back(HostSocket{pkg, std::move(cpus)});
    }
    return t;
}

HostTopology HostTopology::uniform(int sockets, int cpus_per_socket) {
    HostTopology t;
    int cpu = 0;
    for (int s = 0; s < sockets; ++s) {
        HostSocket sock;
        sock.id = s;
        for (int c = 0; c < cpus_per_socket; ++c) {
            sock.cpus.push_back(cpu++);
        }
        t.sockets_.push_back(std::move(sock));
    }
    return t;
}

int HostTopology::total_cpus() const noexcept {
    int n = 0;
    for (const auto& s : sockets_) {
        n += static_cast<int>(s.cpus.size());
    }
    return n;
}

std::vector<int> HostTopology::plan(PinPolicy policy, int first_worker, int count) const {
    std::vector<int> cpus(static_cast<std::size_t>(std::max(count, 0)), -1);
    const int total = total_cpus();
    if (policy == PinPolicy::None || total == 0 || sockets_.empty()) {
        return cpus;
    }
    if (policy == PinPolicy::Compact) {
        // Flatten socket-major: socket 0's CPUs, then socket 1's, ...
        std::vector<int> flat;
        flat.reserve(static_cast<std::size_t>(total));
        for (const auto& s : sockets_) {
            flat.insert(flat.end(), s.cpus.begin(), s.cpus.end());
        }
        for (int i = 0; i < count; ++i) {
            cpus[static_cast<std::size_t>(i)] =
                flat[static_cast<std::size_t>((first_worker + i) % total)];
        }
        return cpus;
    }
    // Scatter: worker g lands on socket g % S, slot (g / S) within it —
    // consecutive workers alternate sockets, maximizing per-worker memory
    // bandwidth at the price of cross-socket sharing.
    const auto nsock = static_cast<int>(sockets_.size());
    for (int i = 0; i < count; ++i) {
        const int g = first_worker + i;
        const HostSocket& s = sockets_[static_cast<std::size_t>(g % nsock)];
        const auto slot = static_cast<std::size_t>(g / nsock) % s.cpus.size();
        cpus[static_cast<std::size_t>(i)] = s.cpus[slot];
    }
    return cpus;
}

bool pin_current_thread(int cpu) noexcept {
    if (cpu < 0) {
        return true;
    }
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    return false;
#endif
}

std::vector<int> current_thread_affinity() {
    std::vector<int> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) {
                cpus.push_back(c);
            }
        }
    }
#endif
    return cpus;
}

bool set_current_thread_affinity(const std::vector<int>& cpus) noexcept {
    if (cpus.empty()) {
        return true;
    }
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) {
        if (c >= 0 && c < CPU_SETSIZE) {
            CPU_SET(c, &set);
        }
    }
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    return false;
#endif
}

}  // namespace minimpi

/// \file transport.cpp
/// Transport selection: names and the factory.

#include "minimpi/transport.hpp"

#include <array>

#include "minimpi/transport_shm.hpp"
#include "minimpi/transport_threads.hpp"
#include "util/parse.hpp"

namespace minimpi {

std::optional<TransportKind> transport_from_string(std::string_view name) noexcept {
    return hdls::util::from_name(name, std::array{TransportKind::Threads, TransportKind::Shm},
                                 transport_name);
}

namespace detail {

std::unique_ptr<Transport> make_transport(TransportKind kind, int world_size) {
    switch (kind) {
        case TransportKind::Threads:
            return std::make_unique<ThreadTransport>(world_size);
        case TransportKind::Shm:
            return std::make_unique<ShmTransport>(world_size);
    }
    throw Error(ErrorCode::InvalidArgument, "minimpi: unknown TransportKind");
}

}  // namespace detail

}  // namespace minimpi

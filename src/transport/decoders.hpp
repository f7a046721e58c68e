#pragma once
/// \file decoders.hpp
/// Standard payload decoders for running each protocol suite over the TCP
/// transport. The simulator passes typed message objects directly; TCP
/// recovers them from bytes, and these helpers encode the per-protocol
/// channel→message-type mapping in one place.

#include "abraham/abraham.hpp"
#include "aba/aba.hpp"
#include "benor/benor.hpp"
#include "binaa/message.hpp"
#include "delphi/message.hpp"
#include "dolev/dolev.hpp"
#include "oracle/dora.hpp"
#include "rbc/rbc.hpp"
#include "transport/cluster.hpp"

namespace delphi::transport::decoders {

/// Delphi (and VectorDelphi: every coordinate channel carries bundles).
inline Decoder delphi() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return protocol::DelphiBundle::decode(r);
  };
}

/// Standalone BinAA instances.
inline Decoder binaa() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return binaa::EchoMessage::decode(r);
  };
}

/// Bracha reliable broadcast.
inline Decoder rbc() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return rbc::RbcMessage::decode(r);
  };
}

/// MMR-style asynchronous binary agreement.
inline Decoder aba() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return aba::AbaMessage::decode(r);
  };
}

/// Dolev et al. multicast AA.
inline Decoder dolev() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return dolev::RoundValueMessage::decode(r);
  };
}

/// Abraham et al.: channel k*(n+1)+n carries WITNESS, the rest carry the
/// round's RBC traffic (the channel layout AbrahamProtocol defines).
inline Decoder abraham(std::size_t n) {
  return [n](std::uint32_t channel, ByteReader& r) -> net::MessagePtr {
    const auto per_round = static_cast<std::uint32_t>(n) + 1;
    if (channel % per_round == static_cast<std::uint32_t>(n)) {
      return abraham::WitnessMessage::decode(r);
    }
    return rbc::RbcMessage::decode(r);
  };
}

/// FIN-style ACS: channels 0..n-1 carry the n RBC children, n..2n-1 the n
/// ABA children (the channel layout AcsProtocol defines).
inline Decoder acs(std::size_t n) {
  return [n](std::uint32_t channel, ByteReader& r) -> net::MessagePtr {
    if (channel < static_cast<std::uint32_t>(n)) {
      return rbc::RbcMessage::decode(r);
    }
    return aba::AbaMessage::decode(r);
  };
}

/// Ben-Or local-coin binary agreement.
inline Decoder benor() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    return benor::BenOrMessage::decode(r);
  };
}

/// DORA over Delphi: the attest channel carries shares, everything else is
/// Delphi bundles.
inline Decoder dora() {
  return [](std::uint32_t channel, ByteReader& r) -> net::MessagePtr {
    if (channel == oracle::DoraProtocol::kAttestChannel) {
      return oracle::AttestMessage::decode(r);
    }
    return protocol::DelphiBundle::decode(r);
  };
}

}  // namespace delphi::transport::decoders

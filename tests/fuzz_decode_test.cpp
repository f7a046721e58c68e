/// Decoder robustness ("fuzz-lite") suite: every wire decoder in the repo is
/// fed (a) random bytes, (b) truncated prefixes of valid encodings, and
/// (c) bit-flipped valid encodings. The contract: decoders either return a
/// well-formed message or throw SerializationError/ProtocolViolation — never
/// crash, hang, or over-allocate. This is the property that lets honest
/// nodes treat arbitrary Byzantine bytes safely.
///
/// The TCP ack frame rides the same harness (parse, then decode the u64
/// count), plus a case for payloads shorter or longer than one u64.
/// The UDP datagram path rides the same harness (data + ack record codecs
/// and a packed multi-record datagram under truncation/flips/garbage) plus
/// its own properties: a tampered or renumbered authenticated record must
/// fail the MAC (the tag covers the sequence number), a packed datagram
/// splits into whole records whose MACs fail or pass one by one, broken
/// framing is rejected without reading past the datagram, the packer keeps
/// records whole, per-peer ordered and within one MTU, and SeqFilter must
/// deliver each seq exactly once no matter how datagrams are duplicated or
/// reordered.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>

#include "aba/aba.hpp"
#include "abraham/abraham.hpp"
#include "benor/benor.hpp"
#include "binaa/message.hpp"
#include "common/rng.hpp"
#include "delphi/message.hpp"
#include "dolev/dolev.hpp"
#include "oracle/dora.hpp"
#include "oracle/dora_baseline.hpp"
#include "rbc/rbc.hpp"
#include "transport/frame.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace delphi {
namespace {

using Decoder = std::function<void(ByteReader&)>;
using RecordSpans = std::vector<std::span<const std::uint8_t>>;

const crypto::HmacKey& pack_key() {
  static const crypto::HmacKey key = [] {
    crypto::Key k{};
    k.fill(0x3C);
    return crypto::HmacKey(k);
  }();
  return key;
}

const std::vector<std::uint8_t> kPayloadA = {1, 2, 3};
const std::vector<std::uint8_t> kPayloadB = {9, 8, 7, 6, 5};

/// Three authenticated records as one flush would pack them for a peer:
/// data (seq 4, channel 1), data (seq 5, channel 2), ack (cum 4, sack 6).
std::vector<std::vector<std::uint8_t>> packed_records() {
  const auto& key = pack_key();
  const auto a = transport::encode_frame_body(1, kPayloadA, /*auth=*/true);
  const auto b = transport::encode_frame_body(2, kPayloadB, /*auth=*/true);
  const auto tag_a = transport::udp_frame_tag(key, 4, *a);
  const auto tag_b = transport::udp_frame_tag(key, 5, *b);
  const std::uint32_t sacks[] = {6};
  return {transport::encode_data_datagram(4, *a, &tag_a),
          transport::encode_data_datagram(5, *b, &tag_b),
          transport::encode_ack_datagram(4, sacks, &key)};
}

std::vector<std::uint8_t> concat(
    const std::vector<std::vector<std::uint8_t>>& records) {
  std::vector<std::uint8_t> out;
  for (const auto& r : records) out.insert(out.end(), r.begin(), r.end());
  return out;
}

struct DecoderCase {
  const char* name;
  Decoder decode;
  std::vector<std::uint8_t> valid;  // one known-good encoding
};

std::vector<DecoderCase> all_decoders() {
  std::vector<DecoderCase> cases;

  {
    rbc::RbcMessage m(rbc::RbcMessage::Kind::kEcho, {1, 2, 3});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"rbc", [](ByteReader& r) { rbc::RbcMessage::decode(r); },
                     w.take()});
  }
  {
    aba::AbaMessage m(aba::AbaMessage::Kind::kAux, 3, true);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"aba", [](ByteReader& r) { aba::AbaMessage::decode(r); },
                     w.take()});
  }
  {
    binaa::EchoMessage m(1, 5, 12345);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"binaa",
                     [](ByteReader& r) { binaa::EchoMessage::decode(r); },
                     w.take()});
  }
  {
    protocol::DelphiBundle m({{0, 1, 1, 0}}, {{1, 7, 2, 3, 64}});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"delphi_bundle",
                     [](ByteReader& r) { protocol::DelphiBundle::decode(r); },
                     w.take()});
  }
  {
    abraham::WitnessMessage m(2, {0, 1, 3});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"witness",
                     [](ByteReader& r) { abraham::WitnessMessage::decode(r); },
                     w.take()});
  }
  {
    oracle::AttestMessage m(99, crypto::Digest{});
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"attest",
                     [](ByteReader& r) { oracle::AttestMessage::decode(r); },
                     w.take()});
  }
  {
    oracle::SignedValueMessage m(1.5, crypto::Digest{});
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dora_signed",
         [](ByteReader& r) { oracle::SignedValueMessage::decode(r); },
         w.take()});
  }
  {
    oracle::ValueListMessage m({{0, 1.0, crypto::Digest{}}});
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dora_list",
         [](ByteReader& r) { oracle::ValueListMessage::decode(r); },
         w.take()});
  }
  {
    dolev::RoundValueMessage m(4, 2.25);
    ByteWriter w;
    m.serialize(w);
    cases.push_back(
        {"dolev",
         [](ByteReader& r) { dolev::RoundValueMessage::decode(r); },
         w.take()});
  }
  {
    benor::BenOrMessage m(benor::BenOrMessage::Kind::kPropose, 9,
                          benor::kBottom);
    ByteWriter w;
    m.serialize(w);
    cases.push_back({"benor",
                     [](ByteReader& r) { benor::BenOrMessage::decode(r); },
                     w.take()});
  }
  {
    // The TCP frame parser as a "decoder": consume one whole stream. A
    // static key keeps the lambda capture-free like the other cases.
    static const crypto::Key key = [] {
      crypto::Key k{};
      k.fill(0x5A);
      return k;
    }();
    const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
    cases.push_back({"tcp_frame",
                     [](ByteReader& r) {
                       transport::FrameParser p(&key);
                       p.feed(r.raw(r.remaining()));
                       while (p.next().has_value()) {
                       }
                     },
                     transport::encode_frame(3, payload, &key)});
  }
  {
    // A TCP ack frame: the parser authenticates it, then its payload must
    // be exactly one u64 receive count.
    static const crypto::Key ack_key = [] {
      crypto::Key k{};
      k.fill(0x6B);
      return k;
    }();
    ByteWriter count;
    count.u64(1234);
    cases.push_back({"tcp_ack",
                     [](ByteReader& r) {
                       transport::FrameParser p(&ack_key);
                       p.feed(r.raw(r.remaining()));
                       while (const auto f = p.next()) {
                         if (f->channel == transport::kAckChannel) {
                           transport::decode_ack(f->payload);
                         }
                       }
                     },
                     transport::encode_frame(transport::kAckChannel,
                                             count.data(), &ack_key)});
  }
  {
    // UDP data datagram (authenticated): kind | seq | frame | seq-covering
    // tag. A static key keeps the lambda capture-free.
    static const crypto::HmacKey udp_key = [] {
      crypto::Key k{};
      k.fill(0xC3);
      return crypto::HmacKey(k);
    }();
    const std::vector<std::uint8_t> payload = {4, 5, 6, 7, 8};
    const auto body = transport::encode_frame_body(2, payload, /*auth=*/true);
    const auto tag = transport::udp_frame_tag(udp_key, 11, *body);
    cases.push_back({"udp_data",
                     [](ByteReader& r) {
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  &udp_key);
                     },
                     transport::encode_data_datagram(11, *body, &tag)});
  }
  {
    // UDP ack datagram (authenticated): kind | cum | sack list | tag.
    static const crypto::HmacKey udp_ack_key = [] {
      crypto::Key k{};
      k.fill(0x96);
      return crypto::HmacKey(k);
    }();
    const std::uint32_t sacks[] = {5, 7, 9};
    cases.push_back({"udp_ack",
                     [](ByteReader& r) {
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  &udp_ack_key);
                     },
                     transport::encode_ack_datagram(3, sacks, &udp_ack_key)});
  }
  {
    // Plaintext UDP data datagram: structural checks only, no MAC.
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    const auto body = transport::encode_frame_body(0, payload, /*auth=*/false);
    cases.push_back({"udp_data_plain",
                     [](ByteReader& r) {
                       transport::decode_datagram(r.raw(r.remaining()),
                                                  nullptr);
                     },
                     transport::encode_data_datagram(0, *body, nullptr)});
  }
  {
    // Packed UDP datagram (data | data | ack): split into records, then
    // decode and authenticate each one.
    cases.push_back({"udp_packed",
                     [](ByteReader& r) {
                       RecordSpans records;
                       transport::split_datagram(r.raw(r.remaining()),
                                                 /*authed=*/true, records);
                       for (const auto rec : records) {
                         transport::decode_datagram(rec, &pack_key());
                       }
                     },
                     concat(packed_records())});
  }
  return cases;
}

/// Run a decoder over input; pass iff it returns or throws a project error.
void expect_graceful(const DecoderCase& c,
                     const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  try {
    c.decode(r);
  } catch (const Error&) {
    // SerializationError / ProtocolViolation: the defined failure mode.
  }
  // Anything else (std::bad_alloc, segfault, infinite loop) fails the test
  // by crashing or timing out.
}

TEST(FuzzDecode, RandomBytes) {
  Rng rng(0xF022);
  for (const auto& c : all_decoders()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<std::uint8_t> junk(rng.below(96));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
      expect_graceful(c, junk);
    }
  }
}

TEST(FuzzDecode, TruncatedPrefixes) {
  for (const auto& c : all_decoders()) {
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      std::vector<std::uint8_t> prefix(c.valid.begin(),
                                       c.valid.begin() + len);
      expect_graceful(c, prefix);
    }
  }
}

TEST(FuzzDecode, SingleBitFlips) {
  for (const auto& c : all_decoders()) {
    for (std::size_t byte = 0; byte < c.valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = c.valid;
        mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
        expect_graceful(c, mutated);
      }
    }
  }
}

TEST(FuzzDecode, HugeClaimedCountsDontAllocate) {
  // Length fields claiming astronomical sizes must be rejected before any
  // allocation (each decoder validates counts against remaining bytes).
  for (const auto& c : all_decoders()) {
    ByteWriter w;
    w.uvarint((1ULL << 50));
    w.u8(0);
    expect_graceful(c, w.data());
  }
}

TEST(FuzzDecode, ValidEncodingsStillDecodeAfterSuite) {
  // Sanity: the canonical encodings do decode (the suite isn't vacuous).
  for (const auto& c : all_decoders()) {
    ByteReader r(c.valid);
    EXPECT_NO_THROW(c.decode(r)) << c.name;
  }
}

// ------------------------------------------------------ udp datagram path

TEST(TcpAck, ShortOrLongPayloadRejected) {
  // An authenticated ack frame whose payload is not exactly one u64 parses
  // (the MAC is good) but does not decode; the link treats it as malformed.
  crypto::Key k{};
  k.fill(0x6B);
  for (const std::size_t len : {0u, 1u, 7u, 9u, 16u}) {
    SCOPED_TRACE(len);
    transport::FrameParser p(&k);
    p.feed(transport::encode_frame(transport::kAckChannel,
                                   std::vector<std::uint8_t>(len, 0xA5), &k));
    const auto f = p.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->channel, transport::kAckChannel);
    EXPECT_THROW(transport::decode_ack(f->payload), SerializationError);
  }
  ByteWriter w;
  w.u64(0x0102030405060708ULL);
  EXPECT_EQ(transport::decode_ack(w.data()), 0x0102030405060708ULL);
}

TEST(UdpDatagram, RenumberedOrTamperedDatagramFailsAuthentication) {
  // The UDP tag covers the sequence number, so a replayed datagram under a
  // different seq (or any payload tamper) must fail the MAC — not decode as
  // a fresh frame.
  crypto::Key k{};
  k.fill(0x42);
  const crypto::HmacKey key(k);
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  const auto body = transport::encode_frame_body(1, payload, /*auth=*/true);
  const auto tag = transport::udp_frame_tag(key, 7, *body);
  auto valid = transport::encode_data_datagram(7, *body, &tag);
  EXPECT_NO_THROW(transport::decode_datagram(valid, &key));

  auto renumbered = valid;
  renumbered[1] ^= 0x01;  // seq byte: replay under a different number
  EXPECT_THROW(transport::decode_datagram(renumbered, &key),
               ProtocolViolation);

  auto tampered = valid;
  tampered[valid.size() - crypto::kMacTagSize - 1] ^= 0x80;  // payload byte
  EXPECT_THROW(transport::decode_datagram(tampered, &key), ProtocolViolation);
}

TEST(UdpDatagram, HugeSackCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.u8(transport::kDatagramAck);
  w.u32(0);
  w.uvarint(1ULL << 40);  // astronomical claimed sack count
  const auto bytes = w.take();
  EXPECT_THROW(transport::decode_datagram(bytes, nullptr),
               SerializationError);
}

TEST(UdpDatagram, PackedRecordsSplitAndDecodeInOrder) {
  const auto records = packed_records();
  const auto dgram = concat(records);
  RecordSpans split;
  transport::split_datagram(dgram, /*authed=*/true, split);
  ASSERT_EQ(split.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::ranges::equal(split[i], records[i])) << "record " << i;
  }
  const auto a = transport::decode_datagram(split[0], &pack_key());
  EXPECT_FALSE(a.is_ack);
  EXPECT_EQ(a.seq, 4u);
  EXPECT_EQ(a.channel, 1u);
  EXPECT_TRUE(std::ranges::equal(a.payload, kPayloadA));
  const auto b = transport::decode_datagram(split[1], &pack_key());
  EXPECT_FALSE(b.is_ack);
  EXPECT_EQ(b.seq, 5u);
  EXPECT_EQ(b.channel, 2u);
  EXPECT_TRUE(std::ranges::equal(b.payload, kPayloadB));
  const auto ack = transport::decode_datagram(split[2], &pack_key());
  EXPECT_TRUE(ack.is_ack);
  EXPECT_EQ(ack.seq, 4u);
  EXPECT_EQ(ack.sacks, std::vector<std::uint32_t>{6});
}

TEST(UdpDatagram, TamperedMiddleRecordFailsAloneNeighboursDecode) {
  // The framing is not authenticated, but every record carries its own MAC:
  // a tampered record fails alone and its neighbours still decode.
  const auto records = packed_records();
  auto dgram = concat(records);
  const std::size_t middle_payload_end =
      records[0].size() + records[1].size() - crypto::kMacTagSize;
  dgram[middle_payload_end - 1] ^= 0x40;
  RecordSpans split;
  transport::split_datagram(dgram, /*authed=*/true, split);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_NO_THROW(transport::decode_datagram(split[0], &pack_key()));
  EXPECT_THROW(transport::decode_datagram(split[1], &pack_key()),
               ProtocolViolation);
  EXPECT_NO_THROW(transport::decode_datagram(split[2], &pack_key()));
}

TEST(UdpDatagram, BrokenFramingRejectedWithoutOverread) {
  // Every input below is its own exactly-sized heap buffer, so a read past
  // the datagram end trips AddressSanitizer.
  const auto records = packed_records();
  const auto dgram = concat(records);
  RecordSpans split;

  // The middle record's length field claims more bytes than remain.
  auto overlong = dgram;
  const std::size_t len_at = records[0].size() + 5;  // kind | seq | len
  const auto claim = static_cast<std::uint32_t>(dgram.size());
  for (std::size_t i = 0; i < 4; ++i) {
    overlong[len_at + i] = static_cast<std::uint8_t>(claim >> (8 * i));
  }
  EXPECT_THROW(transport::split_datagram(overlong, true, split),
               SerializationError);

  // Every cut of the datagram: a cut on a record boundary leaves the
  // leading records; any other cut leaves a truncated last record.
  for (std::size_t len = 0; len < dgram.size(); ++len) {
    SCOPED_TRACE(len);
    const std::vector<std::uint8_t> prefix(dgram.begin(), dgram.begin() + len);
    std::size_t whole = 0;
    std::size_t boundary = 0;
    while (whole < records.size() && boundary + records[whole].size() <= len) {
      boundary += records[whole++].size();
    }
    if (boundary == len) {
      transport::split_datagram(prefix, true, split);
      EXPECT_EQ(split.size(), whole);
    } else {
      EXPECT_THROW(transport::split_datagram(prefix, true, split),
                   SerializationError);
    }
  }

  // A stray trailing byte, whether it reads as a record kind or not.
  for (const std::uint8_t stray :
       {transport::kDatagramData, transport::kDatagramAck, std::uint8_t{0}}) {
    auto trailing = dgram;
    trailing.push_back(stray);
    EXPECT_THROW(transport::split_datagram(trailing, true, split),
                 SerializationError);
  }
}

// ---------------------------------------------------------------- packer

TEST(UdpPacker, OneRecordDatagramIsTheRecord) {
  const auto body = transport::encode_frame_body(3, kPayloadA, /*auth=*/true);
  const auto tag = transport::udp_frame_tag(pack_key(), 9, *body);
  const auto record = transport::encode_data_datagram(9, *body, &tag);
  transport::DatagramPacker packer;
  packer.add(2, record);
  ASSERT_EQ(packer.size(), 1u);
  EXPECT_EQ(packer.to(0), 2u);
  EXPECT_TRUE(std::ranges::equal(packer.datagram(0), record));
}

TEST(UdpPacker, SmallRecordsForOnePeerShareOneDatagram) {
  const auto records = packed_records();
  transport::DatagramPacker packer;
  for (const auto& r : records) packer.add(1, r);
  ASSERT_EQ(packer.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(packer.datagram(0), concat(records)));
  packer.clear();
  EXPECT_EQ(packer.size(), 0u);
}

TEST(UdpPacker, RecordsStayWholeOrderedAndWithinTheMtu) {
  // Random flushes of data and ack records, small and over-MTU, for five
  // peers. Splitting each datagram back and concatenating per peer must give
  // exactly the records added for that peer, in order; a datagram holding
  // two or more records never exceeds one MTU.
  constexpr std::size_t kPeers = 5;
  Rng rng(0x9AC4);
  transport::DatagramPacker packer;
  RecordSpans split;
  for (int flush = 0; flush < 40; ++flush) {
    SCOPED_TRACE(flush);
    packer.clear();
    std::vector<std::vector<std::vector<std::uint8_t>>> added(kPeers);
    const std::size_t count = 1 + rng.below(150);
    for (std::size_t i = 0; i < count; ++i) {
      const auto to = static_cast<NodeId>(rng.below(kPeers));
      std::vector<std::uint8_t> record;
      if (rng.below(4) == 0) {
        std::vector<std::uint32_t> sacks(rng.below(40));
        for (auto& sack : sacks) sack = static_cast<std::uint32_t>(rng.below(1000));
        record = transport::encode_ack_datagram(
            static_cast<std::uint32_t>(i), sacks, nullptr);
      } else {
        const std::size_t size =
            rng.below(10) == 0 ? 1400 + rng.below(2000) : rng.below(200);
        std::vector<std::uint8_t> payload(size,
                                          static_cast<std::uint8_t>(i));
        const auto body =
            transport::encode_frame_body(0, payload, /*auth=*/false);
        record = transport::encode_data_datagram(
            static_cast<std::uint32_t>(i), *body, nullptr);
      }
      packer.add(to, record);
      added[to].push_back(std::move(record));
    }
    std::vector<std::vector<std::vector<std::uint8_t>>> got(kPeers);
    for (std::size_t d = 0; d < packer.size(); ++d) {
      const auto dgram = packer.datagram(d);
      transport::split_datagram(dgram, /*authed=*/false, split);
      ASSERT_FALSE(split.empty());
      if (split.size() >= 2) {
        EXPECT_LE(dgram.size(), transport::kPackedDatagramBytes);
      }
      for (const auto rec : split) {
        got[packer.to(d)].emplace_back(rec.begin(), rec.end());
      }
    }
    for (std::size_t p = 0; p < kPeers; ++p) {
      EXPECT_EQ(got[p], added[p]) << "peer " << p;
    }
  }
}

TEST(UdpSeqFilter, DupAndReorderNeverMisdeliver) {
  // Shuffle seqs 0..199 with every one duplicated three times: each must be
  // accepted exactly once, in any arrival order, and the cumulative floor
  // must reach 200 at the end.
  Rng rng(0xD06);
  std::vector<std::uint32_t> arrivals;
  for (std::uint32_t s = 0; s < 200; ++s) {
    for (int copy = 0; copy < 3; ++copy) arrivals.push_back(s);
  }
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.below(i)]);
  }
  transport::SeqFilter filter;
  std::vector<int> accepted(200, 0);
  for (const auto s : arrivals) {
    if (filter.accept(s)) ++accepted[s];
  }
  for (std::uint32_t s = 0; s < 200; ++s) {
    ASSERT_EQ(accepted[s], 1) << "seq " << s;
  }
  EXPECT_EQ(filter.cum(), 200u);
  EXPECT_EQ(filter.pending(), 0u);
}

}  // namespace
}  // namespace delphi

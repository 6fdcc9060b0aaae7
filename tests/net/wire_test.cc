// Wire protocol contract: every message kind round-trips exactly (bitwise,
// including the full geometry taxonomy), and every malformed frame —
// truncated, corrupted, overlong, length-bombed — is rejected, never
// mis-decoded.

#include <cmath>
#include <cstring>
#include <limits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire.h"

namespace proxdet {
namespace net {
namespace {

// A double whose bit pattern exercises the full range: exact integers,
// tiny/huge magnitudes, negative zero, subnormals.
double RandomDouble(Rng& rng) {
  switch (rng.NextIndex(6)) {
    case 0:
      return static_cast<double>(rng.UniformInt(-1000000, 1000000));
    case 1:
      return rng.Uniform(-1e7, 1e7);
    case 2:
      return rng.Uniform(-1e-7, 1e-7);
    case 3:
      return -0.0;
    case 4:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.UniformInt(1, 100));
    default:
      return rng.Uniform(-1e300, 1e300);
  }
}

Vec2 RandomPoint(Rng& rng) { return {RandomDouble(rng), RandomDouble(rng)}; }

std::vector<Vec2> RandomWindow(Rng& rng, size_t max_len) {
  std::vector<Vec2> points(rng.NextIndex(max_len + 1));
  for (Vec2& p : points) p = RandomPoint(rng);
  // Repeated points are the common case for slow users; make sure the
  // delta coder sees them.
  if (points.size() > 2 && rng.NextBool(0.5)) points[1] = points[0];
  return points;
}

TEST(WireTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ULL << 32) - 1,
                             1ULL << 32,
                             (1ULL << 63),
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.bytes().data(), w.bytes().size());
    EXPECT_EQ(r.GetVarint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WireTest, VarintRejectsTruncationAndOverflow) {
  // Truncated: continuation bit set, then nothing.
  const uint8_t truncated[] = {0x80};
  WireReader r1(truncated, sizeof(truncated));
  r1.GetVarint();
  EXPECT_FALSE(r1.ok());

  // Ten continuation bytes: no terminator within the 64-bit budget.
  std::vector<uint8_t> endless(11, 0x80);
  WireReader r2(endless.data(), endless.size());
  r2.GetVarint();
  EXPECT_FALSE(r2.ok());

  // Tenth byte carrying more than the top value bit overflows 64 bits.
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);
  WireReader r3(overflow.data(), overflow.size());
  r3.GetVarint();
  EXPECT_FALSE(r3.ok());
}

TEST(WireTest, ZigzagRoundTripExtremes) {
  const int64_t values[] = {0, -1, 1, -2, 63, -64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    WireWriter w;
    w.PutZigzag(v);
    WireReader r(w.bytes().data(), w.bytes().size());
    EXPECT_EQ(r.GetZigzag(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(WireTest, DoubleRoundTripPreservesBits) {
  Rng rng(7);
  std::vector<double> values = {0.0, -0.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::denorm_min()};
  for (int i = 0; i < 200; ++i) values.push_back(RandomDouble(rng));
  for (double v : values) {
    WireWriter w;
    w.PutDouble(v);
    WireReader r(w.bytes().data(), w.bytes().size());
    const double back = r.GetDouble();
    ASSERT_TRUE(r.ok());
    uint64_t want, got;
    std::memcpy(&want, &v, sizeof(want));
    std::memcpy(&got, &back, sizeof(got));
    EXPECT_EQ(got, want);  // Bit pattern, so -0.0 and NaN survive too.
  }
}

TEST(WireTest, PointsRoundTripExactlyAndCompressRepeats) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<Vec2> points = RandomWindow(rng, 40);
    WireWriter w;
    w.PutPoints(points);
    WireReader r(w.bytes().data(), w.bytes().size());
    std::vector<Vec2> back;
    ASSERT_TRUE(r.GetPoints(&back));
    EXPECT_EQ(back, points);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // A stationary window XOR-deltas to zero: 1 byte per coordinate after
  // the first point, instead of 16 raw bytes per point.
  const std::vector<Vec2> still(32, Vec2{123456.789, -98765.4321});
  WireWriter w;
  w.PutPoints(still);
  EXPECT_LT(w.bytes().size(), 1 + 20 + 2 * (still.size() - 1) + 1);
}

TEST(WireTest, PointsRejectLengthBomb) {
  WireWriter w;
  w.PutVarint(kMaxWirePoints + 1);  // Count far beyond the payload bytes.
  WireReader r(w.bytes().data(), w.bytes().size());
  std::vector<Vec2> out;
  EXPECT_FALSE(r.GetPoints(&out));
  EXPECT_FALSE(r.ok());

  // Honest-looking count but not enough bytes behind it.
  WireWriter w2;
  w2.PutVarint(1000);
  w2.PutU8(0);
  WireReader r2(w2.bytes().data(), w2.bytes().size());
  EXPECT_FALSE(r2.GetPoints(&out));
}

// ---------------------------------------------------------------------------
// Randomized message round-trips.

SafeRegionShape RandomShape(Rng& rng) {
  switch (rng.NextIndex(4)) {
    case 0: {
      Circle c;
      c.center = RandomPoint(rng);
      c.radius = rng.Uniform(0.0, 1e5);
      return c;
    }
    case 1: {
      MovingCircle m;
      m.center_at_build = RandomPoint(rng);
      m.velocity_per_epoch = RandomPoint(rng);
      m.radius = rng.Uniform(0.0, 1e5);
      m.built_epoch = static_cast<int>(rng.UniformInt(-10, 1000));
      return m;
    }
    case 2: {
      // Regular k-gon with random center/radius: convex by construction,
      // coordinates still arbitrary doubles.
      const int k = static_cast<int>(rng.UniformInt(3, 12));
      const Vec2 center = {rng.Uniform(-1e6, 1e6), rng.Uniform(-1e6, 1e6)};
      const double radius = rng.Uniform(1.0, 1e4);
      std::vector<Vec2> vertices;
      for (int i = 0; i < k; ++i) {
        const double a = 2.0 * M_PI * i / k;
        vertices.push_back(
            {center.x + radius * std::cos(a), center.y + radius * std::sin(a)});
      }
      return ConvexPolygon(std::move(vertices));
    }
    default: {
      std::vector<Vec2> path(rng.NextIndex(20) + 1);
      for (Vec2& p : path) p = RandomPoint(rng);
      return Stripe(Polyline(std::move(path)), rng.Uniform(0.1, 1e4));
    }
  }
}

template <typename Msg>
void ExpectRoundTripAndPrefixRejection(const Msg& msg) {
  const std::vector<uint8_t> payload = Encode(msg);
  Msg back;
  ASSERT_TRUE(Decode(payload, &back));
  EXPECT_TRUE(back == msg);
  // Every strict prefix must be rejected (truncation), as must trailing
  // garbage (framing already guarantees the exact length).
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Msg scratch;
    EXPECT_FALSE(Decode(
        std::vector<uint8_t>(payload.begin(), payload.begin() + cut),
        &scratch))
        << "prefix of length " << cut << " decoded";
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  Msg scratch;
  EXPECT_FALSE(Decode(padded, &scratch));
}

TEST(WireTest, LocationReportRoundTrip) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    LocationReportMsg msg;
    msg.user = static_cast<UserId>(rng.NextIndex(100000));
    msg.epoch = static_cast<int32_t>(rng.UniformInt(-5, 100000));
    msg.position = RandomPoint(rng);
    msg.window = RandomWindow(rng, 12);
    ExpectRoundTripAndPrefixRejection(msg);
  }
}

TEST(WireTest, ProbeRoundTrip) {
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    ProbeMsg msg;
    msg.user = static_cast<UserId>(rng.NextIndex(100000));
    msg.epoch = static_cast<int32_t>(rng.UniformInt(0, 100000));
    ExpectRoundTripAndPrefixRejection(msg);
  }
}

TEST(WireTest, AlertRoundTrip) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    AlertMsg msg;
    msg.user = static_cast<UserId>(rng.NextIndex(100000));
    msg.u = static_cast<UserId>(rng.NextIndex(100000));
    msg.w = static_cast<UserId>(rng.NextIndex(100000));
    msg.epoch = static_cast<int32_t>(rng.UniformInt(0, 100000));
    ExpectRoundTripAndPrefixRejection(msg);
  }
}

TEST(WireTest, RegionInstallRoundTripAllShapes) {
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    RegionInstallMsg msg;
    msg.user = static_cast<UserId>(rng.NextIndex(100000));
    msg.epoch = static_cast<int32_t>(rng.UniformInt(0, 100000));
    msg.region = RandomShape(rng);
    ExpectRoundTripAndPrefixRejection(msg);
  }
}

TEST(WireTest, MatchInstallRoundTripAndOpRange) {
  Rng rng(25);
  for (int trial = 0; trial < 30; ++trial) {
    MatchInstallMsg msg;
    msg.user = static_cast<UserId>(rng.NextIndex(100000));
    msg.epoch = static_cast<int32_t>(rng.UniformInt(0, 100000));
    msg.op = static_cast<uint8_t>(rng.NextIndex(3));
    msg.u = static_cast<UserId>(rng.NextIndex(100000));
    msg.w = static_cast<UserId>(rng.NextIndex(100000));
    msg.region.center = RandomPoint(rng);
    msg.region.radius = rng.Uniform(0.0, 1e5);
    ExpectRoundTripAndPrefixRejection(msg);

    MatchInstallMsg bad = msg;
    bad.op = 3;  // Outside the MatchOp range.
    MatchInstallMsg scratch;
    EXPECT_FALSE(Decode(Encode(bad), &scratch));
  }
}

// ---------------------------------------------------------------------------
// Framing.

TEST(WireTest, FrameRoundTripEveryKind) {
  Rng rng(31);
  for (uint8_t kind = 1; kind <= 6; ++kind) {
    std::vector<uint8_t> payload(rng.NextIndex(64));
    for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.NextIndex(256));
    const uint64_t seq = rng.NextU64() >> rng.NextIndex(64);
    const std::vector<uint8_t> bytes =
        EncodeFrame(static_cast<MsgKind>(kind), seq, payload);
    Frame frame;
    ASSERT_TRUE(DecodeFrame(bytes.data(), bytes.size(), &frame));
    EXPECT_EQ(frame.version, kWireVersion);
    EXPECT_EQ(static_cast<uint8_t>(frame.kind), kind);
    EXPECT_EQ(frame.seq, seq);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(WireTest, TruncatedFrameRejected) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(MsgKind::kProbe, 7, Encode(ProbeMsg{3, 12}));
  Frame frame;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeFrame(bytes.data(), cut, &frame))
        << "truncated frame of length " << cut << " decoded";
  }
}

TEST(WireTest, EverySingleByteCorruptionRejected) {
  // FNV-1a's per-byte step (state ^ byte) * prime is injective in the byte
  // for fixed state and invertible in the state, so any single-byte flip
  // changes the checksum — every such corruption must be caught.
  const std::vector<uint8_t> bytes =
      EncodeFrame(MsgKind::kAlert, 42, Encode(AlertMsg{1, 1, 2, 9}));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    Frame frame;
    EXPECT_FALSE(DecodeFrame(corrupt.data(), corrupt.size(), &frame))
        << "flip at byte " << i << " decoded";
  }
}

// Rewrites the trailing checksum so header validation — not the checksum —
// is what must reject the frame.
std::vector<uint8_t> Resealed(std::vector<uint8_t> bytes) {
  const uint32_t checksum = Fnv1a32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  return bytes;
}

TEST(WireTest, BadMagicVersionKindRejectedEvenWithValidChecksum) {
  const std::vector<uint8_t> good = EncodeFrame(MsgKind::kProbe, 1, {});
  Frame frame;

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrame(bad_magic.data(), bad_magic.size(), &frame));
  bad_magic = Resealed(bad_magic);
  EXPECT_FALSE(DecodeFrame(bad_magic.data(), bad_magic.size(), &frame));

  std::vector<uint8_t> bad_version = good;
  bad_version[2] = kWireVersion + 1;
  bad_version = Resealed(bad_version);
  EXPECT_FALSE(DecodeFrame(bad_version.data(), bad_version.size(), &frame));

  std::vector<uint8_t> bad_kind = good;
  bad_kind[3] = 0;
  bad_kind = Resealed(bad_kind);
  EXPECT_FALSE(DecodeFrame(bad_kind.data(), bad_kind.size(), &frame));
  bad_kind[3] = kMaxMsgKind + 1;
  bad_kind = Resealed(bad_kind);
  EXPECT_FALSE(DecodeFrame(bad_kind.data(), bad_kind.size(), &frame));
  // Every kind through kMaxMsgKind (incl. the batch and shard-forward
  // envelopes) is frame-legal; payload validation happens a layer up.
  for (uint8_t kind = 1; kind <= kMaxMsgKind; ++kind) {
    std::vector<uint8_t> ok_kind = good;
    ok_kind[3] = kind;
    ok_kind = Resealed(ok_kind);
    EXPECT_TRUE(DecodeFrame(ok_kind.data(), ok_kind.size(), &frame)) << kind;
  }
}

TEST(WireTest, FrameOverheadBytesMatchesEncodeFrameExactly) {
  // The sharded frontend's batch-savings accounting uses this constant
  // instead of re-encoding frames; it must never drift from the codec.
  const uint64_t seqs[] = {0, 1, 127, 128, 16383, 16384, (1ULL << 32),
                           std::numeric_limits<uint64_t>::max()};
  const size_t lens[] = {0, 1, 64, 127, 128, 300};
  for (const uint64_t seq : seqs) {
    for (const size_t len : lens) {
      const std::vector<uint8_t> payload(len, 0xa5);
      const std::vector<uint8_t> bytes =
          EncodeFrame(MsgKind::kAlert, seq, payload);
      EXPECT_EQ(bytes.size(), len + FrameOverheadBytes(seq, len))
          << "seq=" << seq << " len=" << len;
    }
  }
  EXPECT_EQ(EncodeFrame(MsgKind::kAck, 0, {}).size(), kMinFrameBytes);
}

// ---------------------------------------------------------------------------
// Batch envelope.

std::vector<BatchItem> SampleBatch() {
  std::vector<BatchItem> items;
  items.push_back({MsgKind::kProbe, Encode(ProbeMsg{4, 17})});
  items.push_back({MsgKind::kAlert, Encode(AlertMsg{4, 4, 9, 17})});
  RegionInstallMsg install;
  install.user = 4;
  install.epoch = 17;
  install.region = Circle{{10.0, 20.0}, 300.0};
  items.push_back({MsgKind::kRegionInstall, Encode(install)});
  MatchInstallMsg match;
  match.user = 4;
  match.epoch = 17;
  match.op = 0;
  match.u = 4;
  match.w = 9;
  match.region = Circle{{15.0, 25.0}, 100.0};
  items.push_back({MsgKind::kMatchInstall, Encode(match)});
  return items;
}

TEST(WireTest, BatchRoundTripAndStrictPrefixRejection) {
  const std::vector<BatchItem> items = SampleBatch();
  const std::vector<uint8_t> payload = EncodeBatch(items);
  std::vector<BatchItem> back;
  ASSERT_TRUE(DecodeBatch(payload, &back));
  EXPECT_EQ(back, items);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<BatchItem> scratch;
    EXPECT_FALSE(DecodeBatch(
        std::vector<uint8_t>(payload.begin(), payload.begin() + cut),
        &scratch))
        << "prefix of length " << cut << " decoded";
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(DecodeBatch(padded, &back));
}

TEST(WireTest, BatchRejectsEmptyNestedAckAndReport) {
  std::vector<BatchItem> out;
  // Empty batch: a framing bug, not a message.
  EXPECT_FALSE(DecodeBatch(EncodeBatch({}), &out));
  // Nested batch, transport ack, and uplink report are all envelope-illegal.
  for (const MsgKind kind :
       {MsgKind::kBatch, MsgKind::kAck, MsgKind::kLocationReport}) {
    EXPECT_FALSE(DecodeBatch(EncodeBatch({{kind, {1, 2, 3}}}), &out))
        << static_cast<int>(kind);
  }
  // A shard forward, by contrast, may ride in a (mesh) batch.
  ShardForwardMsg fwd;
  fwd.inner_kind = static_cast<uint8_t>(MsgKind::kAlert);
  fwd.inner = Encode(AlertMsg{1, 1, 2, 5});
  EXPECT_TRUE(DecodeBatch(EncodeBatch({{MsgKind::kShardForward, Encode(fwd)}}),
                          &out));
  ASSERT_EQ(out.size(), 1u);
  ShardForwardMsg back;
  ASSERT_TRUE(Decode(out[0].payload, &back));
  EXPECT_TRUE(back == fwd);
}

TEST(WireTest, ShardForwardRoundTripAndInnerKindValidation) {
  ShardForwardMsg digest;
  digest.inner_kind = static_cast<uint8_t>(MsgKind::kLocationReport);
  LocationReportMsg report;
  report.user = 7;
  report.epoch = 33;
  report.position = {1234.5, -678.9};
  digest.inner = Encode(report);
  ExpectRoundTripAndPrefixRejection(digest);

  // Only digests and the two pair-owned notices may be forwarded.
  for (const MsgKind kind : {MsgKind::kProbe, MsgKind::kRegionInstall,
                             MsgKind::kAck, MsgKind::kBatch,
                             MsgKind::kShardForward}) {
    ShardForwardMsg bad = digest;
    bad.inner_kind = static_cast<uint8_t>(kind);
    ShardForwardMsg scratch;
    EXPECT_FALSE(Decode(Encode(bad), &scratch)) << static_cast<int>(kind);
  }
}

// ---------------------------------------------------------------------------
// Quantized point codec and the compressed-install guard.

std::vector<Vec2> OnGridPath(size_t n) {
  std::vector<Vec2> points;
  for (size_t i = 0; i < n; ++i) {
    // Multiples of 1/256 by construction: 0.5 = 128/256, 0.25 = 64/256.
    points.push_back({1000.0 + 0.5 * static_cast<double>(i),
                      2000.0 - 0.25 * static_cast<double>(i)});
  }
  return points;
}

TEST(WireTest, QuantizedPointsRoundTripOnGridAndShrink) {
  const std::vector<Vec2> path = OnGridPath(24);
  ASSERT_TRUE(PointsQuantizable(path));
  WireWriter wq;
  wq.PutPointsQuantized(path);
  WireReader r(wq.bytes().data(), wq.bytes().size());
  std::vector<Vec2> back;
  ASSERT_TRUE(r.GetPointsQuantized(&back));
  EXPECT_EQ(back, path);  // Bit-exact: the grid is a power of two.
  EXPECT_EQ(r.remaining(), 0u);

  // Small grid-index deltas beat the XOR-of-bit-patterns coding by a wide
  // margin on a smooth path — the whole point of the stripe compression.
  WireWriter wx;
  wx.PutPoints(path);
  EXPECT_LT(wq.bytes().size(), wx.bytes().size() / 2);
}

TEST(WireTest, PointsQuantizableRejectsOffGridAndHuge) {
  EXPECT_FALSE(PointsQuantizable({{0.1, 0.0}}));  // 0.1 is off-grid.
  EXPECT_FALSE(PointsQuantizable({{1e12, 0.0}}));  // Grid index overflows.
  EXPECT_FALSE(PointsQuantizable(
      {{std::numeric_limits<double>::quiet_NaN(), 0.0}}));
  EXPECT_TRUE(PointsQuantizable({{-0.00390625, 42.0}}));  // -1/256.
  EXPECT_TRUE(PointsQuantizable({}));
}

TEST(WireTest, EncodeCompressedShrinksOnGridStripesAndDecodesEqual) {
  RegionInstallMsg msg;
  msg.user = 3;
  msg.epoch = 12;
  msg.region = Stripe(Polyline(OnGridPath(24)), 750.0);

  const std::vector<uint8_t> exact = Encode(msg);
  const std::vector<uint8_t> compressed = EncodeCompressed(msg);
  EXPECT_LT(compressed.size(), exact.size());
  RegionInstallMsg back;
  ASSERT_TRUE(Decode(compressed, &back));
  EXPECT_TRUE(back == msg);  // The guard's contract: identical geometry.
  // The exact coding still decodes too (old frames stay readable).
  ASSERT_TRUE(Decode(exact, &back));
  EXPECT_TRUE(back == msg);
}

TEST(WireTest, StripeTagsRoundTripEveryAnchorCount) {
  // Both stripe codings (exact kTagStripe, quantized kTagStripeQ) rebuild a
  // stripe equal to the sent one, anchors bit for bit, from 0 anchors up.
  for (const size_t n : {0, 1, 2, 24}) {
    RegionInstallMsg msg;
    msg.user = 7;
    msg.epoch = 3;
    const Stripe sent(Polyline(OnGridPath(n)), 125.5);
    msg.region = sent;
    for (const bool compressed : {false, true}) {
      const std::vector<uint8_t> bytes =
          compressed ? EncodeCompressed(msg) : Encode(msg);
      RegionInstallMsg back;
      ASSERT_TRUE(Decode(bytes, &back)) << "n=" << n;
      ASSERT_TRUE(back == msg) << "n=" << n << " compressed=" << compressed;
      const Stripe& got = std::get<Stripe>(back.region);
      ASSERT_EQ(got.anchor_count(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(&got.anchor_xs()[i], &sent.anchor_xs()[i],
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&got.anchor_ys()[i], &sent.anchor_ys()[i],
                              sizeof(double)),
                  0);
      }
    }
  }
}

TEST(WireTest, EncodeCompressedFallsBackOffGrid) {
  RegionInstallMsg msg;
  msg.user = 3;
  msg.epoch = 12;
  std::vector<Vec2> path = OnGridPath(10);
  path[4].x += 1e-5;  // Knock one vertex off the grid.
  msg.region = Stripe(Polyline(std::move(path)), 750.0);
  EXPECT_EQ(EncodeCompressed(msg), Encode(msg));

  // Non-polyline shapes have nothing to quantize: identical bytes.
  msg.region = Circle{{5.0, 6.0}, 70.0};
  EXPECT_EQ(EncodeCompressed(msg), Encode(msg));
  msg.region = MovingCircle{{5.0, 6.0}, {1.0, 2.0}, 70.0, 4};
  EXPECT_EQ(EncodeCompressed(msg), Encode(msg));
}

TEST(WireTest, LengthMismatchRejectedEvenWithValidChecksum) {
  // Probe payload is tiny, so seq/len are single varint bytes at fixed
  // offsets: lie about the payload length and reseal.
  std::vector<uint8_t> bytes =
      EncodeFrame(MsgKind::kProbe, 1, Encode(ProbeMsg{3, 12}));
  bytes[5] += 1;
  bytes = Resealed(bytes);
  Frame frame;
  EXPECT_FALSE(DecodeFrame(bytes.data(), bytes.size(), &frame));
}

}  // namespace
}  // namespace net
}  // namespace proxdet

// Tests for attribute tuples: construction, accessors, serialization.

#include <gtest/gtest.h>

#include "src/naming/attribute.h"
#include "src/naming/keys.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

TEST(AttributeTest, FactoriesSetTypes) {
  EXPECT_EQ(Attribute::Int32(1, AttrOp::kIs, 5).type(), AttrType::kInt32);
  EXPECT_EQ(Attribute::Int64(1, AttrOp::kIs, 5).type(), AttrType::kInt64);
  EXPECT_EQ(Attribute::Float32(1, AttrOp::kIs, 5.f).type(), AttrType::kFloat32);
  EXPECT_EQ(Attribute::Float64(1, AttrOp::kIs, 5.0).type(), AttrType::kFloat64);
  EXPECT_EQ(Attribute::String(1, AttrOp::kIs, "x").type(), AttrType::kString);
  EXPECT_EQ(Attribute::Blob(1, AttrOp::kIs, {1}).type(), AttrType::kBlob);
}

TEST(AttributeTest, ActualVersusFormal) {
  EXPECT_TRUE(Attribute::Int32(1, AttrOp::kIs, 5).IsActual());
  for (AttrOp op : {AttrOp::kEq, AttrOp::kNe, AttrOp::kLe, AttrOp::kGe, AttrOp::kLt, AttrOp::kGt,
                    AttrOp::kEqAny}) {
    EXPECT_TRUE(Attribute::Int32(1, op, 5).IsFormal()) << AttrOpName(op);
  }
}

TEST(AttributeTest, NumericAccessorsConvert) {
  EXPECT_DOUBLE_EQ(*Attribute::Int32(1, AttrOp::kIs, 7).AsDouble(), 7.0);
  EXPECT_EQ(*Attribute::Float64(1, AttrOp::kIs, 7.9).AsInt(), 7);
  EXPECT_EQ(Attribute::String(1, AttrOp::kIs, "x").AsDouble(), std::nullopt);
  EXPECT_EQ(Attribute::Blob(1, AttrOp::kIs, {}).AsInt(), std::nullopt);
  EXPECT_EQ(Attribute::Int32(1, AttrOp::kIs, 7).AsString(), nullptr);
  ASSERT_NE(Attribute::String(1, AttrOp::kIs, "x").AsString(), nullptr);
}

TEST(AttributeTest, EqualityIsStructural) {
  const Attribute a = Attribute::Int32(1, AttrOp::kIs, 5);
  EXPECT_EQ(a, Attribute::Int32(1, AttrOp::kIs, 5));
  EXPECT_NE(a, Attribute::Int32(2, AttrOp::kIs, 5));
  EXPECT_NE(a, Attribute::Int32(1, AttrOp::kEq, 5));
  EXPECT_NE(a, Attribute::Int32(1, AttrOp::kIs, 6));
  EXPECT_NE(a, Attribute::Int64(1, AttrOp::kIs, 5));  // type matters
}

TEST(AttributeTest, SerializeRoundTripEachType) {
  const AttributeVector attrs = {
      Attribute::Int32(kKeyInterval, AttrOp::kIs, -42),
      Attribute::Int64(kKeyTimestamp, AttrOp::kGe, 1LL << 40),
      Attribute::Float32(kKeyIntensity, AttrOp::kLt, 0.5f),
      Attribute::Float64(kKeyConfidence, AttrOp::kGt, 99.25),
      Attribute::String(kKeyTask, AttrOp::kEq, "detectAnimal"),
      Attribute::Blob(kKeyTarget, AttrOp::kIs, {0, 255, 1, 254}),
      Attribute::Int32(kKeyClass, AttrOp::kEqAny, 0),
  };
  ByteWriter writer;
  SerializeAttributes(attrs, &writer);
  EXPECT_EQ(writer.size(), AttributesWireSize(attrs));

  ByteReader reader(writer.data());
  std::optional<AttributeVector> round = DeserializeAttributes(&reader);
  ASSERT_TRUE(round.has_value());
  ASSERT_EQ(round->size(), attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    EXPECT_EQ((*round)[i], attrs[i]) << "attr " << i;
  }
}

TEST(AttributeTest, DeserializeRejectsGarbage) {
  const std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  ByteReader reader(garbage);
  EXPECT_EQ(Attribute::Deserialize(&reader), std::nullopt);
}

TEST(AttributeTest, DeserializeRejectsBadOpAndType) {
  // key(4) + op + type; op 200 invalid.
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU8(200);
  writer.WriteU8(0);
  writer.WriteU32(5);
  ByteReader bad_op(writer.data());
  EXPECT_EQ(Attribute::Deserialize(&bad_op), std::nullopt);

  ByteWriter writer2;
  writer2.WriteU32(1);
  writer2.WriteU8(0);
  writer2.WriteU8(99);  // invalid type
  writer2.WriteU32(5);
  ByteReader bad_type(writer2.data());
  EXPECT_EQ(Attribute::Deserialize(&bad_type), std::nullopt);
}

TEST(AttributeTest, WireSizeMatchesSerialization) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    Attribute attr;
    switch (rng.NextInt(0, 5)) {
      case 0:
        attr = Attribute::Int32(static_cast<AttrKey>(rng.Next()), AttrOp::kIs,
                                static_cast<int32_t>(rng.Next()));
        break;
      case 1:
        attr = Attribute::Int64(1, AttrOp::kLe, static_cast<int64_t>(rng.Next()));
        break;
      case 2:
        attr = Attribute::Float32(2, AttrOp::kGe, 1.5f);
        break;
      case 3:
        attr = Attribute::Float64(3, AttrOp::kGt, 2.5);
        break;
      case 4:
        attr = Attribute::String(4, AttrOp::kEq,
                                 std::string(static_cast<size_t>(rng.NextInt(0, 40)), 'q'));
        break;
      default:
        attr = Attribute::Blob(
            5, AttrOp::kIs,
            std::vector<uint8_t>(static_cast<size_t>(rng.NextInt(0, 64)), 0x5a));
        break;
    }
    ByteWriter writer;
    attr.Serialize(&writer);
    EXPECT_EQ(writer.size(), attr.WireSize());
  }
}

// The u16 prefixes carry at most kMaxWireLength: the longest values and the
// largest count round-trip exactly, one more does not fit.
TEST(AttributeTest, LongestValuesAndLargestCountRoundTrip) {
  const AttributeVector longest = {
      Attribute::String(kKeyTask, AttrOp::kIs, std::string(kMaxWireLength, 's')),
      Attribute::Blob(kKeyTarget, AttrOp::kIs, std::vector<uint8_t>(kMaxWireLength, 7)),
  };
  const AttributeVector largest(kMaxWireLength, Attribute::Int32(kKeySequence, AttrOp::kIs, 3));
  for (const AttributeVector* attrs : {&longest, &largest}) {
    EXPECT_TRUE(FitsWire(*attrs));
    ByteWriter writer;
    SerializeAttributes(*attrs, &writer);
    EXPECT_EQ(writer.size(), AttributesWireSize(*attrs));
    ByteReader reader(writer.data());
    const std::optional<AttributeVector> round = DeserializeAttributes(&reader);
    ASSERT_TRUE(round.has_value());
    EXPECT_TRUE(*round == *attrs);
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(AttributeTest, ValueOrCountPastTheU16PrefixDoesNotFit) {
  EXPECT_FALSE(FitsWire(
      {Attribute::String(kKeyTask, AttrOp::kIs, std::string(kMaxWireLength + 1, 's'))}));
  EXPECT_FALSE(FitsWire(
      {Attribute::Blob(kKeyTarget, AttrOp::kIs, std::vector<uint8_t>(kMaxWireLength + 1, 7))}));
  EXPECT_FALSE(FitsWire(
      AttributeVector(kMaxWireLength + 1, Attribute::Int32(kKeySequence, AttrOp::kIs, 3))));
}

TEST(AttributeTest, FindHelpers) {
  const AttributeVector attrs = {
      Attribute::Int32(kKeyClass, AttrOp::kEq, kClassData),
      Attribute::String(kKeyType, AttrOp::kIs, "light"),
      Attribute::Int32(kKeyClass, AttrOp::kIs, kClassInterest),
  };
  EXPECT_EQ(FindAttribute(attrs, kKeyClass), &attrs[0]);
  EXPECT_EQ(FindActual(attrs, kKeyClass), &attrs[2]);
  EXPECT_EQ(FindAttribute(attrs, kKeySequence), nullptr);
  EXPECT_EQ(FindActual(attrs, kKeySequence), nullptr);
}

TEST(AttributeTest, RemoveAttributes) {
  AttributeVector attrs = {
      Attribute::Int32(1, AttrOp::kIs, 1),
      Attribute::Int32(2, AttrOp::kIs, 2),
      Attribute::Int32(1, AttrOp::kEq, 3),
  };
  EXPECT_EQ(RemoveAttributes(&attrs, 1), 2u);
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].key(), 2u);
  EXPECT_EQ(RemoveAttributes(&attrs, 99), 0u);
}

TEST(AttributeTest, ToStringRendersOpNames) {
  const Attribute attr = Attribute::Float64(kKeyConfidence, AttrOp::kGt, 0.5);
  EXPECT_NE(attr.ToString().find("GT"), std::string::npos);
  EXPECT_NE(attr.ToString().find("0.5"), std::string::npos);
}

TEST(KeysTest, ClassHelpers) {
  const Attribute is = ClassIs(kClassInterest);
  EXPECT_TRUE(is.IsActual());
  EXPECT_EQ(is.key(), kKeyClass);
  const Attribute eq = ClassEq(kClassData);
  EXPECT_TRUE(eq.IsFormal());
}

TEST(KeysTest, NamesKnownKeys) {
  EXPECT_EQ(KeyName(kKeyClass), "class");
  EXPECT_EQ(KeyName(kKeyInterval), "interval");
  EXPECT_EQ(KeyName(54321), "54321");
}

class AttributeVectorRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AttributeVectorRoundTrip, RandomVectorsSurviveSerialization) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  AttributeVector attrs;
  const int count = static_cast<int>(rng.NextInt(0, 20));
  for (int i = 0; i < count; ++i) {
    const AttrKey key = static_cast<AttrKey>(rng.NextInt(1, 2000));
    const AttrOp op = static_cast<AttrOp>(rng.NextInt(0, 7));
    switch (rng.NextInt(0, 3)) {
      case 0:
        attrs.push_back(Attribute::Int32(key, op, static_cast<int32_t>(rng.Next())));
        break;
      case 1:
        attrs.push_back(Attribute::Float64(key, op, rng.NextDouble() * 1e6 - 5e5));
        break;
      case 2:
        attrs.push_back(Attribute::String(
            key, op, std::string(static_cast<size_t>(rng.NextInt(0, 30)), 'z')));
        break;
      default:
        attrs.push_back(Attribute::Blob(
            key, op, std::vector<uint8_t>(static_cast<size_t>(rng.NextInt(0, 50)), 7)));
        break;
    }
  }
  ByteWriter writer;
  SerializeAttributes(attrs, &writer);
  ByteReader reader(writer.data());
  std::optional<AttributeVector> round = DeserializeAttributes(&reader);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, attrs);
  EXPECT_EQ(reader.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, AttributeVectorRoundTrip, ::testing::Range(0, 25));

}  // namespace
}  // namespace diffusion

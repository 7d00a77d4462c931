#include "common/byte_codec.h"

#include <gtest/gtest.h>

#include <string>

namespace etlopt {
namespace {

TEST(ByteCodecTest, EnvelopeRoundTripReturnsAViewIntoTheInput) {
  const std::string payload("payload\0bytes", 13);
  const std::string sealed = SealChecksummed("ETLTEST1", payload);
  EXPECT_EQ(sealed.size(), 8 + 8 + payload.size() + 8);
  auto opened = OpenChecksummed("ETLTEST1", sealed, "test");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, payload);
  EXPECT_EQ(opened->data(), sealed.data() + 16);

  auto empty = OpenChecksummed("ETLTEST1", SealChecksummed("ETLTEST1", ""),
                               "test");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
}

TEST(ByteCodecTest, EnvelopeRejectsEveryDefectWithItsPrefix) {
  const std::string sealed = SealChecksummed("ETLTEST1", "some payload");
  auto message = [](std::string_view bytes) {
    auto opened = OpenChecksummed("ETLTEST1", bytes, "test file");
    EXPECT_TRUE(opened.status().IsInvalidArgument());
    return opened.status().message();
  };
  EXPECT_EQ(message(SealChecksummed("ETLOTHER", "some payload")),
            "test file: bad magic or truncated file");
  EXPECT_EQ(message(""), "test file: bad magic or truncated file");
  EXPECT_EQ(message(sealed.substr(0, sealed.size() - 1)),
            "test file: length mismatch (truncated)");
  EXPECT_EQ(message(sealed + "x"), "test file: length mismatch (truncated)");
  std::string flipped = sealed;
  flipped[20] ^= 0x01;
  EXPECT_EQ(message(flipped), "test file: checksum mismatch");
  for (size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_FALSE(OpenChecksummed("ETLTEST1", sealed.substr(0, len), "test")
                     .ok())
        << "truncation at " << len << " accepted";
  }
}

}  // namespace
}  // namespace etlopt

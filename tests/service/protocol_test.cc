#include "service/protocol.h"

#include <gtest/gtest.h>

#include "service/client.h"

namespace rrr {
namespace service {
namespace {

TEST(ParseCommand, UppercasesVerbAndSplitsArgs) {
  Result<Command> cmd = ParseCommand("solve name=cars k=4");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd.value().verb, "SOLVE");
  ASSERT_NE(cmd.value().Find("name"), nullptr);
  EXPECT_EQ(*cmd.value().Find("name"), "cars");
  ASSERT_NE(cmd.value().Find("k"), nullptr);
  EXPECT_EQ(*cmd.value().Find("k"), "4");
}

TEST(ParseCommand, RejectsEmptyAndKeyWithoutValue) {
  EXPECT_FALSE(ParseCommand("").ok());
  EXPECT_FALSE(ParseCommand("   ").ok());
  EXPECT_FALSE(ParseCommand("SOLVE naked").ok());
}

TEST(ParseCommand, LaterDuplicateWins) {
  Result<Command> cmd = ParseCommand("SOLVE k=2 k=9");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(*cmd.value().Find("k"), "9");
}

TEST(ParseCommand, GetUintRejectsJunk) {
  Result<Command> cmd = ParseCommand("SOLVE k=abc");
  ASSERT_TRUE(cmd.ok());
  EXPECT_FALSE(cmd.value().GetUint("k").ok());
  EXPECT_FALSE(cmd.value().GetUint("missing").ok());
  Result<uint64_t> fallback = cmd.value().GetUintOr("missing", 7);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.value(), 7u);
}

TEST(Format, OkAndErrRoundTripThroughClientParser) {
  const std::string ok_line =
      FormatOk({{"k", "3"}, {"ids", "1,2,3"}});
  Result<Reply> ok_reply = ParseReply(ok_line);
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_TRUE(ok_reply.value().ok);
  EXPECT_EQ(*ok_reply.value().Find("ids"), "1,2,3");

  const std::string err_line =
      FormatErr(Status::NotFound("no such dataset: cars"));
  Result<Reply> err_reply = ParseReply(err_line);
  ASSERT_TRUE(err_reply.ok());
  EXPECT_FALSE(err_reply.value().ok);
  EXPECT_EQ(err_reply.value().code, "not_found");
  EXPECT_EQ(err_reply.value().msg, "no such dataset: cars");
}

TEST(Format, BusyUsesDedicatedCode) {
  Result<Reply> reply = ParseReply(FormatBusy("queue full"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().ok);
  EXPECT_EQ(reply.value().code, "busy");
}

TEST(Format, WireCodeIsSnakeCase) {
  EXPECT_EQ(WireCode(StatusCode::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(WireCode(StatusCode::kResourceExhausted), "resource_exhausted");
  EXPECT_EQ(WireCode(StatusCode::kInvalidArgument), "invalid_argument");
}

TEST(Lists, IdsRoundTrip) {
  const std::vector<int32_t> ids = {5, -1, 42};
  Result<std::vector<int32_t>> parsed = ParseIdList(JoinIds(ids));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), ids);
  EXPECT_FALSE(ParseIdList("1,x,3").ok());
}

TEST(Lists, IdsOutsideInt32AreRejectedNotTruncated) {
  // 4294967297 = 2^32 + 1 would wrap onto row 1.
  EXPECT_FALSE(ParseIdList("4294967297").ok());
  EXPECT_FALSE(ParseIdList("0,2147483648").ok());
  EXPECT_FALSE(ParseIdList("-2147483649").ok());
  Result<std::vector<int32_t>> edges = ParseIdList("2147483647,-2147483648");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges.value(),
            (std::vector<int32_t>{2147483647, -2147483647 - 1}));
}

TEST(Lists, DoublesParse) {
  Result<std::vector<double>> parsed = ParseDoubleList("1.5,2,3e-1");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.value()[0], 1.5);
  EXPECT_DOUBLE_EQ(parsed.value()[2], 0.3);
  EXPECT_FALSE(ParseDoubleList("1.5,,2").ok());
}

}  // namespace
}  // namespace service
}  // namespace rrr

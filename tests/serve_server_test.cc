#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algebra/agg_function.h"
#include "common/strings.h"
#include "mdql/mdql.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serve/tcp_server.h"
#include "stress/driver.h"
#include "stress/mix.h"
#include "stress/oracle.h"
#include "workload/case_study.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the serving tier's session layer (serve/mdql_server.h)
// and its line-oriented TCP front-end (serve/tcp_server.h): read/write
// routing, reads on the shared sealed MO, per-session stats, warm
// pre-aggregate probing, and the wire protocol end to end.

namespace mddc {
namespace serve {
namespace {

RetailMo BuildSales(std::size_t purchases = 200) {
  RetailWorkloadParams params;
  params.seed = 7;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

class MdqlServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cs = BuildCaseStudy();
    ASSERT_TRUE(cs.ok()) << cs.status();
    patients_ = cs->mo;
    ASSERT_TRUE(store_.Publish("patients", cs->mo).ok());
    retail_ = BuildSales();
    ASSERT_TRUE(store_.Publish("sales", retail_->mo).ok());
  }

  MoStore store_;
  MdqlServer server_{&store_};
  std::optional<MdObject> patients_;
  std::optional<RetailMo> retail_;
};

TEST_F(MdqlServerTest, ReadsMatchAPlainSession) {
  mdql::Session plain;
  ASSERT_TRUE(plain.Register("patients", *patients_).ok());
  ServerSession session = server_.Connect();

  const std::vector<std::string> queries = {
      "SELECT COUNT FROM patients BY Diagnosis.\"Diagnosis Group\" AS Code",
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'",
      "SHOW DIMENSIONS FROM patients",
  };
  auto expect_same_reads = [&]() {
    for (const std::string& query : queries) {
      auto expected = plain.Execute(query);
      ASSERT_TRUE(expected.ok()) << query << ": " << expected.status();
      auto served = session.Execute(query);
      ASSERT_TRUE(served.ok()) << query << ": " << served.status();
      EXPECT_EQ(served->ToString(), expected->ToString()) << query;
      EXPECT_EQ(session.pinned_epoch(), store_.epoch()) << query;
    }
  };
  expect_same_reads();
  EXPECT_EQ(session.stats().queries, queries.size());
  EXPECT_EQ(session.stats().reads, queries.size());
  EXPECT_EQ(session.stats().writes, 0u);

  // After an INSERT the next reads run on the new epoch's MO and still
  // match the plain session holding the same fact.
  const std::string insert =
      "INSERT INTO patients FACT 99 (Name.Name = 'Jane Doe')";
  ASSERT_TRUE(plain.Execute(insert).ok());
  ServerSession writer = server_.Connect();
  ASSERT_TRUE(writer.Execute(insert).ok());
  expect_same_reads();
  EXPECT_EQ(session.pinned_epoch(), writer.pinned_epoch());
}

TEST_F(MdqlServerTest, ReadsNeverGrowThePublishedRegistry) {
  mdql::Session plain;
  ASSERT_TRUE(plain.Register("patients", *patients_).ok());
  ASSERT_TRUE(plain.Register("sales", retail_->mo).ok());
  const std::shared_ptr<const MoSnapshot> pinned = store_.Pin();
  const PublishedMo* sales = pinned->Find("sales");
  const PublishedMo* patients = pinned->Find("patients");
  ASSERT_NE(sales, nullptr);
  ASSERT_NE(patients, nullptr);
  const std::size_t sales_before = sales->mo().registry()->size();
  const std::size_t patients_before = patients->mo().registry()->size();
  ServerSession session = server_.Connect();
  // Every read runs on the published MO itself. Formation's set facts
  // (the TOP grouping falls back to the tree walk, which derives them)
  // must intern into a private fork, never into the sealed registry.
  const std::vector<std::string> reads = {
      "SELECT SUM(Amount) FROM sales BY Product.Category",
      "SELECT COUNT, SUM(Amount) FROM sales BY Product.TOP",
      "EXPLAIN SELECT COUNT FROM sales BY Product.TOP",
      "SHOW HIERARCHY Product FROM sales",
      "SELECT COUNT FROM sales BY Store.Region "
      "WHERE Product.Product = 'Product-3' OR Price >= 20",
      "SELECT COUNT FROM patients ASOF '15/06/1975'",
      "SELECT COUNT FROM patients BY Name.TOP WHERE Age >= 40 ASOF 'NOW'",
  };
  for (const std::string& read : reads) {
    auto expected = plain.Execute(read);
    ASSERT_TRUE(expected.ok()) << read << ": " << expected.status();
    auto served = session.Execute(read);
    ASSERT_TRUE(served.ok()) << read << ": " << served.status();
    EXPECT_FALSE(served->rows.empty()) << read;
    EXPECT_EQ(served->ToString(), expected->ToString()) << read;
    EXPECT_EQ(sales->mo().registry()->size(), sales_before) << read;
    EXPECT_EQ(patients->mo().registry()->size(), patients_before) << read;
  }
  EXPECT_GT(session.stats().exec.plan_fallbacks, 0u);
}

TEST_F(MdqlServerTest, InsertPublishesANewEpochThatTheNextReadSees) {
  ServerSession session = server_.Connect();
  auto before = session.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->rows[0][0], "1");
  const std::uint64_t epoch_before = store_.epoch();
  EXPECT_EQ(session.pinned_epoch(), epoch_before);

  auto ack = session.Execute(
      "INSERT INTO patients FACT 99 (Name.Name = 'Jane Doe')");
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->rows.size(), 1u);
  EXPECT_EQ(ack->rows[0][0], "1");
  EXPECT_EQ(store_.epoch(), epoch_before + 1);
  EXPECT_EQ(session.pinned_epoch(), epoch_before + 1);

  auto after = session.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rows[0][0], "2");

  EXPECT_EQ(session.stats().writes, 1u);
  EXPECT_EQ(session.stats().reads, 2u);
  // The read after the INSERT ran on the epoch the INSERT published.
  EXPECT_EQ(session.pinned_epoch(), epoch_before + 1);

  // Another session sees the insert too (same store, same epoch).
  ServerSession other = server_.Connect();
  auto cross = other.Execute(
      "SELECT COUNT FROM patients WHERE Name.Name = 'Jane Doe'");
  ASSERT_TRUE(cross.ok()) << cross.status();
  EXPECT_EQ(cross->rows[0][0], "2");
  EXPECT_EQ(other.pinned_epoch(), epoch_before + 1);
}

TEST_F(MdqlServerTest, InsertWithProbability) {
  ServerSession session = server_.Connect();
  auto ack = session.Execute(
      "INSERT INTO patients FACT 120 "
      "(Diagnosis.\"Low-level Diagnosis\" = 'Diabetes during pregnancy' "
      "PROB 0.6, Name.Name = 'Jane Doe')");
  if (!ack.ok()) {
    // The low-level diagnosis name differs across representations; the
    // statement must still fail atomically (no epoch published).
    EXPECT_EQ(session.stats().errors, 1u);
  } else {
    EXPECT_EQ(ack->rows[0][0], "1");
  }
}

TEST_F(MdqlServerTest, ErrorsSurfaceAndPublishNothing) {
  ServerSession session = server_.Connect();
  const std::uint64_t epoch = store_.epoch();

  EXPECT_FALSE(session.Execute("SELECT COUNT FROM nowhere").ok());
  EXPECT_FALSE(
      session.Execute("INSERT INTO nowhere FACT 1 (A.B = 'x')").ok());
  EXPECT_FALSE(session
                   .Execute("INSERT INTO patients FACT 1 "
                            "(Name.Name = 'No Such Person')")
                   .ok());
  EXPECT_FALSE(session.Execute("INSERT INTO patients FACT 1 "
                               "(Name.Name = 'Jane Doe' PROB 1.5)")
                   .ok());
  EXPECT_FALSE(session.Execute("garbage statement").ok());

  EXPECT_EQ(store_.epoch(), epoch);
  EXPECT_EQ(session.stats().errors, 5u);
  EXPECT_EQ(session.stats().queries, 5u);
}

TEST_F(MdqlServerTest, StatsJsonCarriesSessionAndExecCounters) {
  ServerSession session = server_.Connect(/*threads_per_query=*/2);
  ASSERT_TRUE(session
                  .Execute("SELECT SUM(Amount) FROM sales "
                           "BY Product.Category")
                  .ok());
  const std::string json = session.StatsJson();
  EXPECT_NE(json.find("\"queries\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reads\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"last_epoch\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exec\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"parallel_runs\""), std::string::npos) << json;
  // The warm-read counter follows facts_walked and the numeric-lookup
  // counter is the last exec key: no warm specs are registered, so the
  // read took the fused pipeline, and the numeric column decided every
  // Amount value it read.
  const std::size_t walked = json.find("\"facts_walked\": ");
  const std::size_t warm = json.find("\"warm_reads\": 0, ");
  const std::size_t lookups = json.find("\"numeric_lookups\": 0}");
  ASSERT_NE(walked, std::string::npos) << json;
  ASSERT_NE(warm, std::string::npos) << json;
  ASSERT_NE(lookups, std::string::npos) << json;
  EXPECT_LT(walked, warm) << json;
  EXPECT_LT(warm, lookups) << json;
  EXPECT_NE(json.find("\"fused_pipelines\": 1"), std::string::npos) << json;
}

TEST_F(MdqlServerTest, ExplainShowsTheWarmReadOnceTheSpecIsWarm) {
  mdql::Session plain;
  ASSERT_TRUE(plain.Register("sales", retail_->mo).ok());
  ServerSession session = server_.Connect();
  const std::string select =
      "SELECT SUM(Amount) FROM sales BY Product.Category";
  const std::string explain = "EXPLAIN " + select;

  // Cold: the serving tier's EXPLAIN is a plain session's.
  auto plain_before = plain.Execute(explain);
  ASSERT_TRUE(plain_before.ok()) << plain_before.status();
  auto cold = session.Execute(explain);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->ToString(), plain_before->ToString());
  EXPECT_NE(cold->ToString().find("fused pipeline"), std::string::npos);
  EXPECT_EQ(cold->ToString().find("warm pre-aggregate"), std::string::npos);

  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < retail_->mo.dimension_count(); ++i) {
    grouping.push_back(i == retail_->product_dim
                           ? retail_->category
                           : retail_->mo.dimension(i).type().top());
  }
  const AggFunction sum = AggFunction::Sum(retail_->amount_dim);
  ASSERT_TRUE(store_.WarmAggregate("sales", sum, grouping).ok());
  const std::shared_ptr<const MoSnapshot> pinned = store_.Pin();
  const MdObject* cached = pinned->Find("sales")->preagg->Peek(sum, grouping);
  ASSERT_NE(cached, nullptr);

  // Warm: the physical section is the one warm line.
  auto warm = session.Execute(explain);
  ASSERT_TRUE(warm.ok()) << warm.status();
  const std::string text = warm->ToString();
  EXPECT_NE(text.find(StrCat("warm pre-aggregate (exact match): 1 "
                             "function(s), ",
                             cached->fact_count(), " group(s)")),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("fused pipeline"), std::string::npos) << text;
  ASSERT_FALSE(warm->rows.empty());
  EXPECT_EQ(warm->rows[warm->rows.size() - 2][0], "physical:");
  // A plain session has no warm cache: its EXPLAIN is unchanged.
  auto plain_after = plain.Execute(explain);
  ASSERT_TRUE(plain_after.ok()) << plain_after.status();
  EXPECT_EQ(plain_after->ToString(), plain_before->ToString());
  // EXPLAIN executes nothing; the SELECT itself is the warm read.
  EXPECT_EQ(session.stats().exec.warm_reads, 0u);
  const std::size_t fused = session.stats().exec.fused_pipelines;
  auto served = session.Execute(select);
  ASSERT_TRUE(served.ok()) << served.status();
  auto expected = plain.Execute(select);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(served->ToString(), expected->ToString());
  EXPECT_EQ(session.stats().exec.warm_reads, 1u);
  EXPECT_EQ(session.stats().exec.fused_pipelines, fused);
  EXPECT_EQ(session.stats().exec.plan_fallbacks, 0u);
}

TEST_F(MdqlServerTest, ExplainedSelectsDoNotFeedTheAdvisor) {
  ServerSession session = server_.Connect();
  const std::string select = "SELECT COUNT FROM sales BY Store.City";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.Execute("EXPLAIN " + select).ok());
  }
  const std::uint64_t epoch = store_.epoch();
  ASSERT_TRUE(session.AdviseWarmAggregates("sales").ok());
  EXPECT_EQ(store_.epoch(), epoch);
  const std::shared_ptr<const MoSnapshot> pinned = store_.Pin();
  EXPECT_EQ(pinned->Find("sales")->preagg, nullptr);

  // An executed SELECT does.
  ASSERT_TRUE(session.Execute(select).ok());
  ASSERT_TRUE(session.AdviseWarmAggregates("sales").ok());
  EXPECT_GT(store_.epoch(), epoch);
  const std::shared_ptr<const MoSnapshot> advised = store_.Pin();
  EXPECT_NE(advised->Find("sales")->preagg, nullptr);
}

TEST_F(MdqlServerTest, WarmAggregatesArePeekableAcrossEpochs) {
  const AggFunction sum = AggFunction::Sum(retail_->amount_dim);
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < retail_->mo.dimension_count(); ++i) {
    grouping.push_back(i == retail_->product_dim
                           ? retail_->category
                           : retail_->mo.dimension(i).type().top());
  }
  ASSERT_TRUE(store_.WarmAggregate("sales", sum, grouping).ok());

  // Hold the pin: `entry` must outlive the Mutate below, which retires
  // this epoch.
  const std::shared_ptr<const MoSnapshot> pinned = store_.Pin();
  const PublishedMo* entry = pinned->Find("sales");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->preagg, nullptr);
  const MdObject* warmed = entry->preagg->Peek(sum, grouping);
  ASSERT_NE(warmed, nullptr);
  EXPECT_GT(warmed->fact_count(), 0u);
  // Cold groupings are a miss, not a computation.
  std::vector<CategoryTypeIndex> cold = grouping;
  cold[retail_->product_dim] = retail_->department;
  EXPECT_EQ(entry->preagg->Peek(sum, cold), nullptr);

  // The spec stays warm in every later epoch.
  ASSERT_TRUE(store_
                  .Mutate("sales",
                          [](MdObject& draft) {
                            const FactId fact =
                                draft.registry()->Atom(5000000);
                            MDDC_RETURN_NOT_OK(draft.AddFact(fact));
                            return draft.CoverWithTop();
                          })
                  .ok());
  const std::shared_ptr<const MoSnapshot> after = store_.Pin();
  const PublishedMo* next = after->Find("sales");
  ASSERT_NE(next, nullptr);
  ASSERT_NE(next->preagg, nullptr);
  EXPECT_NE(next->preagg->Peek(sum, grouping), nullptr);
  EXPECT_NE(next->preagg.get(), entry->preagg.get());
}

// The shared-MO differential (TSan target): 4 sessions read one
// published MO concurrently — each read runs on the pinned sealed epoch
// itself — while a writer session appends batches. The reads cover the
// warm reads of two specs the writer's appends fold, the fused
// group-by, a WHERE mask, ASOF, PROB, SHOW and the tree-walk fallback of
// a TOP grouping; every read must render the bytes of the sequential
// replay at its pinned epoch.
TEST(SharedMoDifferentialTest, ConcurrentReadsMatchSequentialReplay) {
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kAppends = 8;

  ClinicalWorkloadParams params;
  params.seed = 23;
  params.num_patients = 600;
  auto clinical =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  ASSERT_TRUE(clinical.ok()) << clinical.status();
  const stress::WorkloadProfile profile =
      stress::WorkloadProfile::For(params, *clinical, "clinical");
  MdObject replica = clinical->mo;
  // The groupings of the first two reads, kept warm in every epoch.
  std::vector<CategoryTypeIndex> by_group;
  for (std::size_t i = 0; i < replica.dimension_count(); ++i) {
    by_group.push_back(replica.dimension(i).type().top());
  }
  std::vector<CategoryTypeIndex> by_family_region = by_group;
  by_group[clinical->diagnosis_dim] = clinical->group;
  by_family_region[clinical->diagnosis_dim] = clinical->family;
  by_family_region[clinical->residence_dim] = clinical->region;

  MoStore store;
  MdqlServer server(&store);
  ASSERT_TRUE(store.Publish("clinical", std::move(clinical->mo)).ok());
  ASSERT_TRUE(
      store.WarmAggregate("clinical", AggFunction::SetCount(), by_group).ok());
  ASSERT_TRUE(store
                  .WarmAggregate("clinical", AggFunction::SetCount(),
                                 by_family_region)
                  .ok());
  const std::uint64_t base_epoch = store.epoch();

  const std::vector<std::string> reads = {
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\"",
      "SELECT COUNT FROM clinical "
      "BY Diagnosis.\"Diagnosis Family\", Residence.Region",
      "SELECT COUNT FROM clinical BY Residence.Region "
      "WHERE Diagnosis.\"Diagnosis Group\" = 'G1' OR Residence.County = "
      "'CO2'",
      "SELECT COUNT FROM clinical BY Diagnosis.\"Diagnosis Group\" "
      "ASOF '01/06/75'",
      "SELECT COUNT FROM clinical BY Residence.Region "
      "WHERE PROB(Diagnosis.\"Diagnosis Family\" = 'F1') >= 0.7",
      "SELECT COUNT FROM clinical BY Residence.TOP "
      "WHERE Residence.Region = 'R0'",
      "SHOW DIMENSIONS FROM clinical",
  };

  std::atomic<std::size_t> ready{0};
  auto start_together = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < kReaders + 1) std::this_thread::yield();
  };
  stress::StressReport report;
  std::vector<std::vector<stress::StatementRecord>> recorded(kReaders);
  std::vector<std::size_t> errors(kReaders, 0);
  std::vector<std::uint64_t> fallbacks(kReaders, 0);
  std::vector<std::uint64_t> warm_reads(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ServerSession session = server.Connect();
      start_together();
      for (std::size_t i = 0; i < kRounds * reads.size(); ++i) {
        const std::string& read = reads[(i + r) % reads.size()];
        auto result = session.Execute(read);
        if (!result.ok()) {
          ++errors[r];
          continue;
        }
        recorded[r].push_back(stress::StatementRecord{
            session.pinned_epoch(), read, result->ToString()});
      }
      fallbacks[r] = session.stats().exec.plan_fallbacks;
      warm_reads[r] = session.stats().exec.warm_reads;
    });
  }

  ServerSession writer = server.Connect();
  stress::StatementGenerator generator(profile, /*seed=*/9,
                                       /*session_index=*/0);
  start_together();
  for (std::size_t a = 0; a < kAppends; ++a) {
    for (const std::string& insert :
         generator.Generate(stress::QueryClass::kAppendBatch)) {
      auto ack = writer.Execute(insert);
      ASSERT_TRUE(ack.ok()) << insert << ": " << ack.status();
      report.write_records.push_back(stress::StatementRecord{
          writer.pinned_epoch(), insert, ack->ToString()});
    }
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(store.epoch(), base_epoch + kAppends);
  EXPECT_GT(writer.stats().exec.csr_tail_extends, 0u);  // patched seals
  EXPECT_GT(writer.stats().exec.preagg_folds, 0u);      // folded entries

  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[r], 0u) << "reader " << r;
    EXPECT_EQ(fallbacks[r], kRounds) << "reader " << r;  // the TOP read
    EXPECT_EQ(warm_reads[r], 2 * kRounds) << "reader " << r;
    for (stress::StatementRecord& record : recorded[r]) {
      report.read_records.push_back(std::move(record));
    }
  }
  ASSERT_EQ(report.read_records.size(), kReaders * kRounds * reads.size());

  auto oracle = stress::VerifySequentialReplay(std::move(replica), "clinical",
                                               base_epoch, report);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(oracle->mismatches, 0u) << oracle->first_mismatch;
  EXPECT_EQ(oracle->reads_checked, report.read_records.size());
  EXPECT_EQ(oracle->writes_replayed, kAppends);
  // No reader holds a pin once its statement returns.
  EXPECT_EQ(store.CollectStats().live_snapshots, 1u);
}

// ---- TCP front-end ---------------------------------------------------------

int ConnectTo(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  return ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(framed.size());
}

/// Reads one full reply (through the '.' terminator line); returns the
/// reply's lines without the terminator.
std::vector<std::string> ReadReply(int fd, std::string* buffer) {
  std::vector<std::string> lines;
  char chunk[4096];
  while (true) {
    std::size_t newline;
    while ((newline = buffer->find('\n')) != std::string::npos) {
      std::string line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      if (line == ".") return lines;
      lines.push_back(std::move(line));
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return lines;  // connection dropped mid-reply
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

TEST_F(MdqlServerTest, TcpEndToEnd) {
  TcpServer tcp(&server_);
  ASSERT_TRUE(tcp.Start().ok());
  ASSERT_NE(tcp.port(), 0);

  const int fd = ConnectTo(tcp.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  ASSERT_TRUE(SendLine(
      fd, "SELECT COUNT FROM patients BY Diagnosis.\"Diagnosis Group\""));
  std::vector<std::string> reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], "OK 2");  // two diagnosis groups
  EXPECT_GT(reply.size(), 1u);  // the rendered table follows

  ASSERT_TRUE(SendLine(fd, ".epoch"));
  reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], "OK 2");  // two publishes since construction

  ASSERT_TRUE(
      SendLine(fd, "INSERT INTO patients FACT 77 (Name.Name = 'John Doe')"));
  reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], "OK 1");

  ASSERT_TRUE(SendLine(fd, ".epoch"));
  reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], "OK 3");

  ASSERT_TRUE(SendLine(fd, "SELECT garbage"));
  reply = ReadReply(fd, &buffer);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0].rfind("ERR ", 0), 0u) << reply[0];

  ASSERT_TRUE(SendLine(fd, ".stats"));
  reply = ReadReply(fd, &buffer);
  ASSERT_GE(reply.size(), 2u);
  EXPECT_EQ(reply[0], "OK");
  EXPECT_NE(reply[1].find("\"writes\": 1"), std::string::npos) << reply[1];

  ASSERT_TRUE(SendLine(fd, ".quit"));
  char drain[64];
  EXPECT_LE(::recv(fd, drain, sizeof(drain), 0), 0);  // server closed
  ::close(fd);

  // Two concurrent connections get independent sessions.
  const int fd1 = ConnectTo(tcp.port());
  const int fd2 = ConnectTo(tcp.port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  std::string buffer1;
  std::string buffer2;
  ASSERT_TRUE(SendLine(fd1, "SELECT COUNT FROM patients"));
  ASSERT_TRUE(SendLine(fd2, "SELECT COUNT FROM sales"));
  EXPECT_EQ(ReadReply(fd1, &buffer1)[0], "OK 1");
  EXPECT_EQ(ReadReply(fd2, &buffer2)[0], "OK 1");
  ::close(fd1);
  ::close(fd2);

  tcp.Stop();
  // Stop is idempotent and Start can bind again afterwards.
  tcp.Stop();
  ASSERT_TRUE(tcp.Start().ok());
  tcp.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace mddc

// The paper's claims as one file of gated rows: Figures 8, 9 and 11 and the
// rest of §3.1, §4.3, §6.1, §6.2, §6.3, §6.4 and §7, the prior simulations
// [23] that §6.1 cites, and the scalability §1 leans on.
//
// This bench runs a fixed table of sections. Each is a short function over
// the existing runners that returns rows: a value with its unit (a mean and
// its 95% CI half-width are two rows, NAME and NAME_ci95) and claim verdicts
// (unit "claim"; 1 when the claim, as EXPERIMENTS.md states it, holds,
// else 0). One printer writes every row to stdout, and the rows, each named
// "<section>.<row>", go to one diffusion-bench-v1 file.
//
// Every section runs at fixed envelopes (runs, minutes, seed base, sweep
// points), so the file is a pure function of the code. Simulation
// replicates fan out through bench::RunReplicates and come back in seed
// order, so the file is byte-identical at any --jobs. Figure 11 records only
// its shape verdicts, never host nanoseconds, and its timing loops run
// alone, never beside simulation replicates.
//
//   paper_claims                           writes BENCH_paper.json
//   paper_claims --check=BENCH_paper.json  re-runs every section and fails
//                                          when any row or verdict moved
//   paper_claims --trace-out=t.jsonl       also writes the JSONL flight
//                                          recording of Figure 8's first
//                                          replicate (1 source, suppression)
//
// Most verdicts are findings: a 0 is what EXPERIMENTS.md reports, not a
// failure of the run. The few in kRequiredClaims are gates: when one reads 0,
// a plain run and a --check run both exit 1 before anything is written.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/apps/animal.h"
#include "src/apps/surveillance.h"
#include "src/core/message.h"
#include "src/core/node.h"
#include "src/fault/scenarios.h"
#include "src/micro/micro_gateway.h"
#include "src/micro/micro_node.h"
#include "src/naming/attribute_set.h"
#include "src/naming/matching.h"
#include "src/radio/energy.h"
#include "src/testbed/congestion.h"
#include "src/testbed/experiments.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "src/testbed/traffic_model.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace diffusion {
namespace {

using Rows = std::vector<bench::BenchResult>;

void Add(Rows* rows, const std::string& name, const char* unit, double value) {
  rows->push_back({name, unit, value});
}

// A replicated quantity: its mean as NAME and its 95% CI half-width as
// NAME_ci95.
void AddStat(Rows* rows, const std::string& name, const char* unit, const RunningStat& stat) {
  Add(rows, name, unit, stat.mean());
  Add(rows, name + "_ci95", unit, stat.confidence95());
}

void Claim(Rows* rows, const std::string& name, bool holds) {
  Add(rows, "claim_" + name, "claim", holds ? 1.0 : 0.0);
}

// What every section runs with.
struct Options {
  unsigned jobs = 1;      // simulation replicate workers
  std::string trace_out;  // Figure 8 traces its first replicate here
};

// A simulation section's fixed envelope.
struct Envelope {
  int runs;
  int minutes;
  uint64_t seed;

  SimDuration duration() const { return static_cast<SimDuration>(minutes) * kMinute; }
};

void AddEnvelope(Rows* rows, const Envelope& envelope) {
  Add(rows, "runs", "count", envelope.runs);
  Add(rows, "minutes", "min", envelope.minutes);
  Add(rows, "seed", "seed", static_cast<double>(envelope.seed));
}

// Runs `run` on every (point, replicate) cell, point-major, replicate r of
// each point seeded envelope.seed + r, `jobs` cells at a time. Results come
// back in cell order at any `jobs`. A non-empty `trace_out` receives the
// trace of the first cell.
template <typename Params, typename Result>
std::vector<Result> Sweep(unsigned jobs, const std::vector<Params>& points,
                          const Envelope& envelope, Result (*run)(const Params&),
                          const std::string& trace_out = "") {
  const size_t runs = static_cast<size_t>(envelope.runs);
  const auto cell = [&](size_t i, TraceSink* sink) {
    Params params = points[i / runs];
    params.seed = envelope.seed + i % runs;
    if constexpr (requires { params.trace_sink; }) {
      params.trace_sink = sink;
    }
    return run(params);
  };
  return bench::RunReplicates<Result>(jobs, points.size() * runs, trace_out, nullptr, cell);
}

// `field` x `scale` over point `point`'s replicates, added in seed order.
template <typename Result, typename Field>
RunningStat StatOf(const std::vector<Result>& results, size_t point, const Envelope& envelope,
                   Field Result::*field, double scale = 1.0) {
  RunningStat stat;
  for (int run = 0; run < envelope.runs; ++run) {
    const Result& result = results[point * static_cast<size_t>(envelope.runs) +
                                   static_cast<size_t>(run)];
    stat.Add(static_cast<double>(result.*field) * scale);
  }
  return stat;
}

// A duty cycle's row-name part: 0.22 is "duty_22pct".
std::string DutyName(double duty) {
  return "duty_" + std::to_string(std::lround(duty * 100)) + "pct";
}

// True when every value is above (Rising) or below (Falling) the one before.
bool Rising(const std::vector<double>& values) {
  return std::adjacent_find(values.begin(), values.end(), std::greater_equal<>()) == values.end();
}

bool Falling(const std::vector<double>& values) {
  return std::adjacent_find(values.begin(), values.end(), std::less_equal<>()) == values.end();
}

// A random field of `nodes` at the density of 50 nodes on 100 m x 100 m, so
// hop counts per unit area hold as the network grows.
ScaleParams DensityHeldField(size_t nodes) {
  ScaleParams params;
  params.nodes = nodes;
  params.field_size = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
  return params;
}

// ---- Figure 8: "Bytes sent from all diffusion modules, normalized to the
// number of distinct events, for varying numbers of sources." -------------
//
// §6.1's aggregation experiment: the 14-node ISI testbed, sink at node 28,
// sources at nodes 25/16/22/13 added in that order, one 112-byte event per
// 6 s with synchronized sequence numbers, and a duplicate-suppression filter
// on every node in the suppressed points. The paper ran five 30-minute
// experiments per point. Expected shape: with suppression the traffic is
// roughly constant in the source count, without it traffic climbs steeply,
// and "suppression is able to reduce traffic by up to 42% for four sources";
// "only 55-80% of events generated in the experiment were delivered to the
// sink". The traffic_model section's 990 (ideal) and 3429 B/event (4
// sources, none) bracket the points.
Rows Fig8(const Options& options) {
  const Envelope envelope{5, 30, 1000};
  std::vector<Fig8Params> points;
  for (int sources = 1; sources <= 4; ++sources) {
    for (AggregationStrategy strategy :
         {AggregationStrategy::kSuppression, AggregationStrategy::kNone}) {
      Fig8Params params;
      params.sources = sources;
      params.strategy = strategy;
      params.duration = envelope.duration();
      points.push_back(params);
    }
  }
  // The first cell, and so the one --trace-out records, is 1 source with
  // suppression at the first seed.
  const std::vector<Fig8Result> results =
      Sweep(options.jobs, points, envelope, &RunFig8, options.trace_out);

  Rows rows;
  AddEnvelope(&rows, envelope);
  std::vector<double> suppressed_bytes;
  std::vector<double> plain_bytes;
  std::vector<double> savings;
  std::vector<double> delivery;
  bool above_ideal = true;
  for (int sources = 1; sources <= 4; ++sources) {
    const size_t point = 2 * static_cast<size_t>(sources - 1);
    const RunningStat suppressed = StatOf(results, point, envelope, &Fig8Result::bytes_per_event);
    const RunningStat plain = StatOf(results, point + 1, envelope, &Fig8Result::bytes_per_event);
    const RunningStat delivered_suppressed =
        StatOf(results, point, envelope, &Fig8Result::delivery_rate, 100.0);
    const RunningStat delivered_plain =
        StatOf(results, point + 1, envelope, &Fig8Result::delivery_rate, 100.0);
    suppressed_bytes.push_back(suppressed.mean());
    plain_bytes.push_back(plain.mean());
    savings.push_back(plain.mean() > 0.0 ? (1.0 - suppressed.mean() / plain.mean()) * 100.0 : 0.0);
    delivery.push_back(delivered_suppressed.mean());
    delivery.push_back(delivered_plain.mean());
    above_ideal &= suppressed.mean() > ModelBytesPerEvent(sources, AggregationModel::kIdeal);
    const std::string name = "sources_" + std::to_string(sources);
    AddStat(&rows, name + "_bytes_suppressed", "B/event", suppressed);
    AddStat(&rows, name + "_bytes_plain", "B/event", plain);
    Add(&rows, name + "_savings", "%", savings.back());
    AddStat(&rows, name + "_delivery_suppressed", "%", delivered_suppressed);
    AddStat(&rows, name + "_delivery_plain", "%", delivered_plain);
  }
  // One source has no duplicates to suppress: the means agree within 1%.
  Claim(&rows, "one_source_identical",
        std::fabs(suppressed_bytes[0] - plain_bytes[0]) <= 0.01 * plain_bytes[0]);
  // "Roughly constant": from 1 to 4 sources, suppressed traffic grows by at
  // most a third of what unsuppressed traffic grows.
  Claim(&rows, "suppressed_nearly_flat",
        suppressed_bytes[3] - suppressed_bytes[0] <= (plain_bytes[3] - plain_bytes[0]) / 3);
  Claim(&rows, "savings_grow_with_sources", Rising(savings));
  Claim(&rows, "savings_4_sources_within_5_points_of_42pct", std::fabs(savings[3] - 42.0) <= 5.0);
  // The model underpredicts aggregation and matches the 4-source plain point
  // (within 10%).
  Claim(&rows, "suppressed_above_ideal_model", above_ideal);
  Claim(&rows, "plain_4_sources_on_model",
        std::fabs(plain_bytes[3] / ModelBytesPerEvent(4, AggregationModel::kNone) - 1.0) <=
            0.1);
  const auto in_band = [](double percent) { return percent >= 55.0 && percent <= 80.0; };
  Claim(&rows, "one_source_delivery_in_55_80pct_band",
        in_band(delivery[0]) && in_band(delivery[1]));
  Claim(&rows, "delivery_in_55_80pct_band", std::all_of(delivery.begin(), delivery.end(), in_band));
  return rows;
}

// ---- §6.1 analytic traffic model -------------------------------------------
//
// "Summing the message cost and normalizing per event we expect aggregation
// to provide a flat 990 B/event independent of the number of sources, and we
// expect bytes sent per event to increase from 990 to 3289 B/event without
// aggregation as the number of sources rise from 1 to 4."
//
// The model's per-term breakdown at 4 sources and its totals for 1-4 sources
// under the three aggregation idealizations: the bracket Figure 8's measured
// points are compared against (127 B messages, 14-node floods, 5-hop path,
// interests/60 s, events/6 s, 1-in-10 exploratory).
Rows TrafficModel(const Options& /*options*/) {
  const struct {
    const char* name;
    AggregationModel model;
  } models[] = {
      {"none", AggregationModel::kNone},
      {"first_hop", AggregationModel::kFirstHop},
      {"ideal", AggregationModel::kIdeal},
  };
  Rows rows;
  Add(&rows, "interest_msgs_per_event", "msgs/event", ModelInterestMessagesPerEvent());
  for (const auto& [name, model] : models) {
    const std::string at4 = std::string(name) + "_4_sources_";
    Add(&rows, at4 + "data_msgs_per_event", "msgs/event", ModelDataMessagesPerEvent(4, model));
    Add(&rows, at4 + "exploratory_msgs_per_event", "msgs/event",
        ModelExploratoryMessagesPerEvent(4, model));
    Add(&rows, at4 + "reinforcement_msgs_per_event", "msgs/event",
        ModelReinforcementMessagesPerEvent(4, model));
    for (int sources = 1; sources <= 4; ++sources) {
      Add(&rows, std::string(name) + "_bytes_" + std::to_string(sources) + "_sources", "B/event",
          ModelBytesPerEvent(sources, model));
    }
  }
  const auto within = [](double value, double target, double tolerance) {
    return std::fabs(value / target - 1.0) <= tolerance;
  };
  bool ideal_flat = true;
  for (int sources = 1; sources <= 4; ++sources) {
    ideal_flat &= within(ModelBytesPerEvent(sources, AggregationModel::kIdeal), 990, 0.01);
  }
  Claim(&rows, "ideal_flat_at_990", ideal_flat);
  // The paper's 3289 is its own rounding of the same term sum.
  const double none_1 = ModelBytesPerEvent(1, AggregationModel::kNone);
  const double none_4 = ModelBytesPerEvent(4, AggregationModel::kNone);
  Claim(&rows, "none_990_to_3289", within(none_1, 990, 0.05) && within(none_4, 3289, 0.05));
  return rows;
}

// ---- §6.1 radio energy model: P_d = d·p_l·t_l + p_r·t_r + p_s·t_s ----------
//
// The analytic duty-cycle table the paper walks through (listen-dominated at
// d=1; half the energy at d≈22%; send/receive-dominated by d≈10%), on the
// testbed's aggregate listen:receive:send time shares (40:3:1) and the
// assumed power ratios 1:2:2. Then the same model on *measured* time shares
// from a simulated 10-minute Figure-8 run (4 sources, suppression on). The
// measured listen share exceeds the paper's congested aggregate because it
// averages all 14 nodes, lightly loaded ones included.
void AddEnergyTable(Rows* rows, const std::string& prefix, const TimeShares& shares) {
  Add(rows, prefix + "share_listen", "time", shares.listen);
  Add(rows, prefix + "share_receive", "time", shares.receive);
  Add(rows, prefix + "share_send", "time", shares.send);
  for (double duty : {1.0, 0.5, 0.22, 0.15, 0.10, 0.05}) {
    const std::string name = prefix + DutyName(duty);
    Add(rows, name + "_energy", "energy", TotalEnergy(duty, EnergyRatios{}, shares));
    Add(rows, name + "_listen_fraction", "%",
        ListenEnergyFraction(duty, EnergyRatios{}, shares) * 100.0);
  }
}

Rows EnergyModel(const Options& /*options*/) {
  Rows rows;
  const TimeShares paper = PaperTimeShares();
  AddEnergyTable(&rows, "paper_", paper);
  const auto listen_percent = [&paper](double duty) {
    return ListenEnergyFraction(duty, EnergyRatios{}, paper) * 100.0;
  };
  Claim(&rows, "listen_dominates_at_duty_100pct", listen_percent(1.0) >= 75.0);
  Claim(&rows, "half_listen_at_duty_22pct", std::fabs(listen_percent(0.22) - 50.0) <= 5.0);
  Claim(&rows, "send_receive_dominate_at_duty_10pct", listen_percent(0.10) < 50.0);

  const TestbedLayout layout = IsiTestbedLayout();
  TestbedWorld world(99, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.diffusion = TestbedDiffusionConfig(),
                                 .radio = TestbedRadioConfig()});
  SurveillanceConfig sconfig;
  world.SuppressDuplicates(sconfig);
  SurveillanceSink sink(world.node(kIsiSinkNode), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (NodeId id : kIsiSourceNodes) {
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  sink.Start();
  for (auto& source : sources) {
    source->Start();
  }
  const SimDuration run_time = 10 * kMinute;
  world.sim().RunUntil(run_time);

  TimeShares measured{0, 0, 0};
  const double node_count = static_cast<double>(world.nodes().size());
  for (const auto& [id, node] : world.nodes()) {
    const TimeShares shares =
        SharesFromStats(node->radio().stats(), node->radio().time_sending(), run_time);
    measured.listen += shares.listen / node_count;
    measured.receive += shares.receive / node_count;
    measured.send += shares.send / node_count;
  }
  AddEnergyTable(&rows, "measured_", measured);
  return rows;
}

// ---- Figure 9: "Percentage of audio events successfully delivered to the
// user" for nested versus flat (one-level) queries -------------------------
//
// §6.2: the ISI testbed, user at node 39, audio sensor at node 20, light
// sensors at 16/25/22/13. Lights toggle every minute on the minute and
// report their state every 2 s (~100-byte messages); the audio sensor
// produces a ~100-byte clip per light change. The nested query has the
// audio node sub-task the lights (3 data hops end to end); the flat query
// carries the light reports across the network to the user, and the audio
// clips follow (5 data hops); the triggered flat query has the user send an
// explicit per-event query, one more fragile leg. The paper ran three
// 20-minute experiments per point. Expected shape: nested delivers more
// than flat everywhere; both fall as sensors are added, flat faster;
// "nested queries reduce loss rates by 15-30%"; flat moves substantially
// more bytes.
Rows Fig9(const Options& options) {
  const Envelope envelope{3, 20, 2000};
  const int sensor_counts[] = {1, 2, 4};
  const struct {
    const char* name;
    QueryMode mode;
  } queries[] = {
      {"nested", QueryMode::kNested},
      {"flat", QueryMode::kFlat},
      {"triggered", QueryMode::kFlatTriggered},
  };
  std::vector<Fig9Params> points;
  for (int sensors : sensor_counts) {
    for (const auto& query : queries) {
      Fig9Params params;
      params.lights = sensors;
      params.mode = query.mode;
      params.duration = envelope.duration();
      points.push_back(params);
    }
  }
  const std::vector<Fig9Result> results = Sweep(options.jobs, points, envelope, &RunFig9);

  Rows rows;
  AddEnvelope(&rows, envelope);
  // delivered[q] holds query q's mean delivery at each sensor count.
  std::vector<double> delivered[3];
  std::vector<double> loss_cut;
  std::vector<double> bytes_ratio;
  for (size_t s = 0; s < 3; ++s) {
    const std::string name = "sensors_" + std::to_string(sensor_counts[s]);
    double bytes[3];
    for (size_t q = 0; q < 3; ++q) {
      const size_t point = 3 * s + q;
      const RunningStat stat =
          StatOf(results, point, envelope, &Fig9Result::delivered_fraction, 100.0);
      delivered[q].push_back(stat.mean());
      bytes[q] = StatOf(results, point, envelope, &Fig9Result::diffusion_bytes).mean();
      AddStat(&rows, name + "_" + queries[q].name + "_delivered", "%", stat);
      // Rounded to the byte, so a mean of over a million bytes keeps every
      // digit in the file.
      Add(&rows, name + "_" + queries[q].name + "_bytes", "B", std::round(bytes[q]));
    }
    const double nested_loss = 100.0 - delivered[0].back();
    const double flat_loss = 100.0 - delivered[1].back();
    loss_cut.push_back(flat_loss > 0.0 ? (1.0 - nested_loss / flat_loss) * 100.0 : 0.0);
    bytes_ratio.push_back(bytes[1] / bytes[0]);
    Add(&rows, name + "_loss_cut", "%", loss_cut.back());
    Add(&rows, name + "_flat_bytes_ratio", "x", bytes_ratio.back());
  }
  const auto all = [](const std::vector<double>& values, auto holds) {
    return std::all_of(values.begin(), values.end(), holds);
  };
  Claim(&rows, "nested_delivers_more", all(loss_cut, [](double cut) { return cut > 0.0; }));
  Claim(&rows, "both_fall_with_sensors", Falling(delivered[0]) && Falling(delivered[1]));
  Claim(&rows, "flat_falls_further",
        delivered[1].front() - delivered[1].back() > delivered[0].front() - delivered[0].back());
  Claim(&rows, "loss_cut_in_15_30pct_band",
        all(loss_cut, [](double cut) { return cut >= 15.0 && cut <= 30.0; }));
  Claim(&rows, "flat_moves_1_5x_the_bytes", all(bytes_ratio, [](double x) { return x >= 1.5; }));
  bool triggered_below_flat = true;
  for (size_t s = 0; s < 3; ++s) {
    triggered_below_flat &= delivered[2][s] < delivered[1][s];
  }
  Claim(&rows, "triggered_below_flat", triggered_below_flat);
  return rows;
}

// ---- Figure 11: "Matching performance as the number of attributes grow." ---
//
// §6.3's methodology: two-way matching of the Figure-10 interest (Set A, 8
// attributes) against a data set (Set B) grown from 6 to 30 attributes, four
// series: match/IS (extra actuals), match/EQ (extra formals), and
// no-match/IS and no-match/EQ (Set B's confidence flipped from 90 to 10 so
// Set A's "confidence GT 50" fails). Each measurement times a loop of 5,000
// matches (10,000 for the cheaper non-matching case), repeated in a new
// random attribute order.
//
// Expected shape (paper, on a 66 MHz 486): cost linear in the attribute
// count; the no-match lines cheap and flat; match/EQ grows fastest (every
// added formal must be searched), match/IS more slowly (added actuals are
// only scanned). Host nanoseconds say nothing about the PC/104 node (the
// paper measured ~500 µs per small-set match), so only the shape verdicts
// are recorded.
//
// Both sets are canonicalized before the timed loop: timing TwoWayMatch on
// AttributeVectors would sort and hash both sets on every call and time
// canonicalization, not matching. Repetitions interleave the attribute
// counts, so a slow spell of the host spreads over the whole curve instead
// of bending it, and each point is the median over the repetitions.
void Shuffle(AttributeVector* attrs, Rng* rng) {
  for (size_t i = attrs->size(); i > 1; --i) {
    std::swap((*attrs)[i - 1],
              (*attrs)[static_cast<size_t>(rng->NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

// Nanoseconds per TwoWayMatch(a, b), over `iterations` calls after a warm-up.
double TimeMatch(const AttributeSet& a, const AttributeSet& b, int iterations) {
  volatile bool sink = false;
  for (int i = 0; i < 100; ++i) {
    sink = sink ^ TwoWayMatch(a, b);
  }
  const double seconds = bench::Seconds([&] {
    for (int i = 0; i < iterations; ++i) {
      sink = sink ^ TwoWayMatch(a, b);
    }
  });
  return seconds * 1e9 / iterations;
}

// The least-squares line through (x[i], y[i]).
struct Line {
  double slope;
  double intercept;
};

Line FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return {slope, (sy - slope * sx) / n};
}

Rows Fig11Matching(const Options& /*options*/) {
  constexpr int kReps = 25;
  constexpr uint64_t kSeed = 42;
  const struct {
    const char* name;
    SetGrowth growth;
    bool matches;
    int iterations;
  } series[] = {
      {"match_is", SetGrowth::kActualIs, true, 5000},
      {"match_eq", SetGrowth::kFormalEq, true, 5000},
      {"nomatch_is", SetGrowth::kActualIs, false, 10000},
      {"nomatch_eq", SetGrowth::kFormalEq, false, 10000},
  };
  constexpr size_t kSeries = sizeof(series) / sizeof(series[0]);
  std::vector<double> attrs;
  for (size_t count = 6; count <= 30; count += 2) {
    attrs.push_back(static_cast<double>(count));
  }

  // samples[series][point] holds one time per repetition.
  std::vector<std::vector<std::vector<double>>> samples(
      kSeries, std::vector<std::vector<double>>(attrs.size()));
  Rng rng(kSeed);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t point = 0; point < attrs.size(); ++point) {
      for (size_t s = 0; s < kSeries; ++s) {
        AttributeVector a = AnimalInterestSetA();
        AttributeVector b = GrowSetB(static_cast<size_t>(attrs[point]), series[s].growth);
        if (!series[s].matches) {
          b = MakeNoMatch(b);
        }
        Shuffle(&a, &rng);
        Shuffle(&b, &rng);
        samples[s][point].push_back(
            TimeMatch(AttributeSet(a), AttributeSet(b), series[s].iterations));
      }
    }
  }

  Rows rows;
  Add(&rows, "reps", "count", kReps);
  double slope[kSeries];
  for (size_t s = 0; s < kSeries; ++s) {
    std::vector<double> medians;
    for (const std::vector<double>& times : samples[s]) {
      medians.push_back(bench::SpreadOf(times).median);
    }
    const Line line = FitLine(attrs, medians);
    slope[s] = line.slope;
    // Linear: no point strays from the series' least-squares line by more
    // than 20% of the line's value there.
    bool linear = true;
    for (size_t point = 0; point < attrs.size(); ++point) {
      const double fitted = line.slope * attrs[point] + line.intercept;
      linear &= std::fabs(medians[point] - fitted) <= 0.2 * fitted;
    }
    Claim(&rows, std::string("linear_") + series[s].name, linear);
  }
  // Cheap and flat, whatever attribute is added: each no-match line climbs
  // at most a quarter as steeply as match/EQ.
  Claim(&rows, "nomatch_cheap_and_flat", slope[2] <= slope[1] / 4 && slope[3] <= slope[1] / 4);
  Claim(&rows, "match_eq_steeper_than_match_is", slope[1] >= 2 * slope[0]);
  return rows;
}

// ---- §6.1's simulation comparison: the exploratory:data ratio -------------
//
// "The primary reason for this difference is differences in ratio of
// exploratory to data messages ... In simulation the ratio of exploratory to
// data messages sent from a source was about 1:100 (exploratory every 50 s,
// data every 0.5 s, 64 B packets) ... In our testbed this ratio was about
// 1:10."
//
// A larger random network (50 nodes, 5 sources, 5 sinks, 1.6 Mb/s radios as
// in the ns simulations) at both ratios, with and without suppression.
// Expected shape: the savings factor grows markedly from 1:10 to 1:100,
// because flooded exploratory traffic (which aggregation merges entirely)
// stops dominating the reinforced-path data traffic. Paper checkpoints:
// ~1.7x savings at 1:10 (the testbed's 42%), 3-5x at 1:100.
Rows SimRatio(const Options& options) {
  const Envelope envelope{3, 5, 3000};
  const struct {
    const char* name;
    SimDuration event_interval;
    int exploratory_every;
  } ratios[] = {
      {"ratio_1_10", 6 * kSecond, 10},
      {"ratio_1_100", 500 * kMillisecond, 100},
  };
  std::vector<ScaleParams> points;
  for (const auto& ratio : ratios) {
    for (bool suppression : {true, false}) {
      ScaleParams params;
      params.nodes = 50;
      params.event_interval = ratio.event_interval;
      params.exploratory_every = ratio.exploratory_every;
      params.duration = envelope.duration();
      params.suppression = suppression;
      points.push_back(params);
    }
  }
  const std::vector<ScaleResult> results =
      Sweep(options.jobs, points, envelope, &RunScaleExperiment);

  Rows rows;
  AddEnvelope(&rows, envelope);
  Add(&rows, "nodes", "count", 50);
  double factor[2];
  for (size_t r = 0; r < 2; ++r) {
    const RunningStat suppressed = StatOf(results, 2 * r, envelope, &ScaleResult::bytes_per_event);
    const RunningStat plain = StatOf(results, 2 * r + 1, envelope, &ScaleResult::bytes_per_event);
    factor[r] = suppressed.mean() > 0.0 ? plain.mean() / suppressed.mean() : 0.0;
    const std::string name = ratios[r].name;
    AddStat(&rows, name + "_bytes_suppressed", "B/event", suppressed);
    AddStat(&rows, name + "_bytes_plain", "B/event", plain);
    Add(&rows, name + "_savings", "x", factor[r]);
  }
  Claim(&rows, "savings_grow_with_data_share", factor[1] > factor[0]);
  Claim(&rows, "ratio_1_100_in_3_5x_band", factor[1] >= 3.0 && factor[1] <= 5.0);
  return rows;
}

// ---- §4.2/§7 extension: geographically scoped interest flooding ----------
//
// "In our current implementation interests and exploratory messages are
// flooded through the network ... We are currently exploring using filters
// to optimize diffusion (avoiding flooding) with geographic information."
//
// A 6x6 grid with the sink in one corner and the queried region at the far
// end of the same edge; the GeoScopeFilter suppresses interest re-flooding
// at nodes outside the sink-to-region corridor. Expected shape: with scoping
// on, interests stop reaching off-corridor nodes, total bytes per event
// drop, and delivery is unaffected (the corridor retains the routes that
// matter).
Rows GeoScope(const Options& options) {
  const Envelope envelope{3, 10, 4000};
  std::vector<GeoParams> points;
  for (bool geo : {false, true}) {
    GeoParams params;
    params.grid = 6;
    params.geo_scope = geo;
    params.duration = envelope.duration();
    points.push_back(params);
  }
  const std::vector<GeoResult> results = Sweep(options.jobs, points, envelope, &RunGeoExperiment);

  Rows rows;
  AddEnvelope(&rows, envelope);
  Add(&rows, "grid", "nodes/side", 6);
  RunningStat bytes[2];
  RunningStat delivery[2];
  RunningStat pruned[2];
  for (size_t p = 0; p < 2; ++p) {
    bytes[p] = StatOf(results, p, envelope, &GeoResult::bytes_per_event);
    delivery[p] = StatOf(results, p, envelope, &GeoResult::delivery_rate, 100.0);
    pruned[p] = StatOf(results, p, envelope, &GeoResult::interests_pruned);
    const std::string name = p == 0 ? "off" : "on";
    AddStat(&rows, name + "_bytes_per_event", "B/event", bytes[p]);
    AddStat(&rows, name + "_delivery", "%", delivery[p]);
    Add(&rows, name + "_interests_pruned", "interests", pruned[p].mean());
  }
  const double cut = (1.0 - bytes[1].mean() / bytes[0].mean()) * 100.0;
  Add(&rows, "bytes_cut", "%", cut);
  Claim(&rows, "scoping_cuts_bytes", cut >= 30.0);
  const bool cis_overlap = std::fabs(delivery[1].mean() - delivery[0].mean()) <=
                           delivery[0].confidence95() + delivery[1].confidence95();
  Claim(&rows, "delivery_unchanged", cis_overlap);
  Claim(&rows, "prunes_only_when_scoped", pruned[0].mean() == 0.0 && pruned[1].mean() > 0.0);
  return rows;
}

// ---- §6.1 latency discussion: aggregation strategies ---------------------
//
// "A potential disadvantage of data aggregation is increased latency ... The
// algorithm used in these experiments does not affect latency at all, since
// we forward unique events immediately upon reception and then suppress any
// additional duplicates ... Other aggregation algorithms, such as those that
// delay transmitting a sensor reading with the hope of aggregating readings
// from other sensors, can add some latency."
//
// Three in-network strategies on the Figure-8 workload (4 sources): none
// (every copy travels to the sink), suppression (§6.1's filter: first copy
// forwarded immediately) and counting (§3.3's merge-and-annotate filter with
// a 2 s hold window). Expected shape: suppression matches none's latency
// while cutting traffic; counting pays its window in latency.
Rows AggregationStrategies(const Options& options) {
  const Envelope envelope{3, 15, 6000};
  const struct {
    const char* name;
    AggregationStrategy strategy;
  } strategies[] = {
      {"none", AggregationStrategy::kNone},
      {"suppression", AggregationStrategy::kSuppression},
      {"counting", AggregationStrategy::kCounting},
  };
  std::vector<Fig8Params> points;
  for (const auto& strategy : strategies) {
    Fig8Params params;
    params.sources = 4;
    params.strategy = strategy.strategy;
    params.duration = envelope.duration();
    points.push_back(params);
  }
  const std::vector<Fig8Result> results = Sweep(options.jobs, points, envelope, &RunFig8);

  Rows rows;
  AddEnvelope(&rows, envelope);
  Add(&rows, "counting_window", "ms", static_cast<double>(kCountingWindow / kMillisecond));
  double bytes[3];
  double latency[3];
  for (size_t s = 0; s < 3; ++s) {
    const std::string name = strategies[s].name;
    const RunningStat stat = StatOf(results, s, envelope, &Fig8Result::bytes_per_event);
    bytes[s] = stat.mean();
    latency[s] = StatOf(results, s, envelope, &Fig8Result::mean_latency_s).mean();
    AddStat(&rows, name + "_bytes_per_event", "B/event", stat);
    AddStat(&rows, name + "_delivery", "%",
            StatOf(results, s, envelope, &Fig8Result::delivery_rate, 100.0));
    Add(&rows, name + "_first_copy_latency", "s", latency[s]);
  }
  Claim(&rows, "suppression_cuts_bytes", bytes[1] <= 0.6 * bytes[0]);
  Claim(&rows, "suppression_adds_no_latency", latency[1] <= 1.1 * latency[0]);
  Claim(&rows, "counting_adds_its_window",
        latency[2] >= latency[0] + static_cast<double>(kCountingWindow) / kSecond);
  return rows;
}

// ---- "Figure 6b from [23]": the prior ns simulations §6.1 compares against
//
// "Previous simulation studies have shown that aggregation can reduce energy
// consumption by a factor of 3-5x in a large network (50-250 nodes) with
// five active sources and five sinks." That study's configuration (1.6 Mb/s
// radios, 64 B messages, data every 0.5 s, exploratory every 50 s ≈ 1:100)
// over the node-count sweep, reporting the communication-energy savings of
// in-network duplicate suppression (the ns study's radios made idle
// listening negligible next to tx/rx). Expected shape: the factor sits in the
// paper's 3-5x band across the sweep, far above the testbed's 1.7x, for the
// ratio reasons §6.1 explains.
Rows Fig6bPriorSim(const Options& options) {
  const Envelope envelope{3, 4, 9500};
  const size_t node_counts[] = {50, 100, 150, 200, 250};
  std::vector<ScaleParams> points;
  for (size_t nodes : node_counts) {
    for (bool suppression : {true, false}) {
      ScaleParams params = DensityHeldField(nodes);
      params.duration = envelope.duration();
      params.suppression = suppression;
      points.push_back(params);
    }
  }
  const std::vector<ScaleResult> results =
      Sweep(options.jobs, points, envelope, &RunScaleExperiment);

  Rows rows;
  AddEnvelope(&rows, envelope);
  bool above_testbed = true;
  bool in_band = true;
  for (size_t n = 0; n < 5; ++n) {
    const RunningStat suppressed =
        StatOf(results, 2 * n, envelope, &ScaleResult::comm_energy_per_event);
    const RunningStat plain =
        StatOf(results, 2 * n + 1, envelope, &ScaleResult::comm_energy_per_event);
    const double factor = suppressed.mean() > 0.0 ? plain.mean() / suppressed.mean() : 0.0;
    const std::string name = "nodes_" + std::to_string(node_counts[n]);
    AddStat(&rows, name + "_comm_energy_suppressed", "energy/event", suppressed);
    AddStat(&rows, name + "_comm_energy_plain", "energy/event", plain);
    Add(&rows, name + "_savings", "x", factor);
    above_testbed &= factor > 1.7;
    in_band &= factor >= 3.0 && factor <= 5.0;
  }
  Claim(&rows, "savings_above_testbed_1_7x", above_testbed);
  Claim(&rows, "savings_in_3_5x_band", in_band);
  return rows;
}

// ---- §6.4: propagation-model sensitivity ---------------------------------
//
// "Current simulation models, even with statistical noise, do not adequately
// reflect these observed propagation characteristics [asymmetric links,
// intermittent connectivity]." The Figure-8 workload (4 sources) under the
// calibrated disk channel and under log-normal shadowing at rising sigma,
// which adds gray-zone links and per-direction asymmetry. The point is
// methodological: absolute traffic and delivery are channel-model-sensitive,
// while the aggregation *savings* (a ratio) holds.
Rows Propagation(const Options& options) {
  const Envelope envelope{3, 15, 9000};
  const struct {
    const char* name;
    bool shadowing;
    double sigma;
  } channels[] = {
      {"disk", false, 0.0},
      {"shadowing_2db", true, 2.0},
      {"shadowing_4db", true, 4.0},
      {"shadowing_6db", true, 6.0},
  };
  std::vector<Fig8Params> points;
  for (const auto& channel : channels) {
    for (AggregationStrategy strategy :
         {AggregationStrategy::kSuppression, AggregationStrategy::kNone}) {
      Fig8Params params;
      params.sources = 4;
      params.shadowing = channel.shadowing;
      params.shadowing_sigma_db = channel.sigma;
      params.duration = envelope.duration();
      params.strategy = strategy;
      points.push_back(params);
    }
  }
  const std::vector<Fig8Result> results = Sweep(options.jobs, points, envelope, &RunFig8);

  Rows rows;
  AddEnvelope(&rows, envelope);
  double suppressed_bytes[4];
  double savings[4];
  for (size_t c = 0; c < 4; ++c) {
    const RunningStat suppressed = StatOf(results, 2 * c, envelope, &Fig8Result::bytes_per_event);
    const RunningStat plain = StatOf(results, 2 * c + 1, envelope, &Fig8Result::bytes_per_event);
    suppressed_bytes[c] = suppressed.mean();
    savings[c] = plain.mean() > 0.0 ? (1.0 - suppressed.mean() / plain.mean()) * 100.0 : 0.0;
    const std::string name = channels[c].name;
    AddStat(&rows, name + "_bytes_suppressed", "B/event", suppressed);
    AddStat(&rows, name + "_bytes_plain", "B/event", plain);
    AddStat(&rows, name + "_delivery", "%",
            StatOf(results, 2 * c, envelope, &Fig8Result::delivery_rate, 100.0));
    Add(&rows, name + "_savings", "%", savings[c]);
  }
  Claim(&rows, "absolute_traffic_moves",
        *std::max_element(suppressed_bytes, suppressed_bytes + 4) >= 1.1 * suppressed_bytes[0]);
  const auto [lowest, highest] = std::minmax_element(savings, savings + 4);
  Claim(&rows, "savings_ratio_holds", *highest - *lowest <= 10.0);
  return rows;
}

// ---- §1/[23]: scalability -------------------------------------------------
//
// "[The simulation study] evaluated their performance through simulation,
// finding that scalability is good as numbers of nodes and traffic
// increases." The network-size sweep in the simulation-era configuration
// (1.6 Mb/s radios, 5 sources, 5 sinks, suppression on) on density-held
// random fields. Expected shape: bytes per event grow more slowly than the
// node count (floods touch every node, but the reinforced data paths grow
// only with hop count), so the per-node cost falls, and delivery stays high.
Rows Scaling(const Options& options) {
  const Envelope envelope{3, 3, 5000};
  const size_t node_counts[] = {30, 50, 80, 120};
  std::vector<ScaleParams> points;
  for (size_t nodes : node_counts) {
    ScaleParams params = DensityHeldField(nodes);
    params.duration = envelope.duration();
    points.push_back(params);
  }
  const std::vector<ScaleResult> results =
      Sweep(options.jobs, points, envelope, &RunScaleExperiment);

  Rows rows;
  AddEnvelope(&rows, envelope);
  std::vector<double> per_node;
  bool delivery_high = true;
  for (size_t n = 0; n < 4; ++n) {
    const RunningStat bytes = StatOf(results, n, envelope, &ScaleResult::bytes_per_event);
    const RunningStat delivery = StatOf(results, n, envelope, &ScaleResult::delivery_rate, 100.0);
    per_node.push_back(bytes.mean() / static_cast<double>(node_counts[n]));
    delivery_high &= delivery.mean() >= 90.0;
    const std::string name = "nodes_" + std::to_string(node_counts[n]);
    AddStat(&rows, name + "_bytes_per_event", "B/event", bytes);
    AddStat(&rows, name + "_delivery", "%", delivery);
    Add(&rows, name + "_bytes_per_event_per_node", "B/event", per_node.back());
  }
  Claim(&rows, "per_node_cost_falls", Falling(per_node));
  Claim(&rows, "delivery_at_least_90pct", delivery_high);
  return rows;
}

// ---- §7: two-phase vs one-phase pull ---------------------------------------
//
// §7's open question about mapping diffusion's parameters and phases to
// different needs. The Figure-8 workload under the paper's two-phase pull
// (exploratory floods + reinforcement) and under one-phase pull (data
// follows the reverse of the fastest interest flood; no exploratory phase at
// all), with suppression on and off. Expected shape: one-phase pull removes
// the periodic exploratory floods and the reinforcement chatter, cutting
// bytes/event, most visibly without suppression (where each source's
// exploratory flood costs a full network sweep). Its trade-off is path
// agility: repairs ride the 60 s interest refresh instead of the exploratory
// cadence.
Rows Variant(const Options& options) {
  const Envelope envelope{3, 15, 7000};
  const char* const names[] = {"two_phase_suppressed", "two_phase_plain", "one_phase_suppressed",
                               "one_phase_plain"};
  std::vector<Fig8Params> points;
  for (DiffusionVariant variant :
       {DiffusionVariant::kTwoPhasePull, DiffusionVariant::kOnePhasePull}) {
    for (bool suppression : {true, false}) {
      Fig8Params params;
      params.sources = 4;
      params.variant = variant;
      params.strategy =
          suppression ? AggregationStrategy::kSuppression : AggregationStrategy::kNone;
      params.duration = envelope.duration();
      points.push_back(params);
    }
  }
  const std::vector<Fig8Result> results = Sweep(options.jobs, points, envelope, &RunFig8);

  Rows rows;
  AddEnvelope(&rows, envelope);
  double bytes[4];
  double delivery[4];
  for (size_t p = 0; p < 4; ++p) {
    const RunningStat stat = StatOf(results, p, envelope, &Fig8Result::bytes_per_event);
    const RunningStat delivered = StatOf(results, p, envelope, &Fig8Result::delivery_rate, 100.0);
    bytes[p] = stat.mean();
    delivery[p] = delivered.mean();
    AddStat(&rows, std::string(names[p]) + "_bytes_per_event", "B/event", stat);
    AddStat(&rows, std::string(names[p]) + "_delivery", "%", delivered);
    Add(&rows, std::string(names[p]) + "_latency", "s",
        StatOf(results, p, envelope, &Fig8Result::mean_latency_s).mean());
  }
  const double cut_suppressed = (1.0 - bytes[2] / bytes[0]) * 100.0;
  const double cut_plain = (1.0 - bytes[3] / bytes[1]) * 100.0;
  Add(&rows, "one_phase_bytes_cut_suppressed", "%", cut_suppressed);
  Add(&rows, "one_phase_bytes_cut_plain", "%", cut_plain);
  Claim(&rows, "one_phase_sends_fewer_bytes", cut_suppressed > 0.0 && cut_plain > 0.0);
  Claim(&rows, "one_phase_saves_most_unsuppressed", cut_plain > cut_suppressed);
  Claim(&rows, "one_phase_costs_delivery", delivery[2] < delivery[0] && delivery[3] < delivery[1]);
  return rows;
}

// ---- §6.1/§7: a duty-cycled MAC, measured ---------------------------------
//
// The paper could only *model* energy: "we cannot measure energy per event
// ... we can estimate the effectiveness of reducing traffic for MACs with
// different duty cycles", and §7 notes "a freely available, energy aware MAC
// protocol remains needed". This build has one (network-synchronized duty
// cycling in the CSMA MAC), so the model's prediction is checked against
// *measured* listen/receive/send times (power 1:2:2) on the Figure-8
// workload (4 sources, suppression on). Expected shape: energy per event
// falls steeply with the duty cycle (listening dominates), delivery stays
// usable while the awake windows still fit the offered load, and latency
// grows by the sleep deferral per hop.
Rows DutyCycle(const Options& options) {
  const Envelope envelope{3, 15, 8000};
  const double duties[] = {1.0, 0.5, 0.22, 0.10};
  std::vector<Fig8Params> points;
  for (double duty : duties) {
    Fig8Params params;
    params.sources = 4;
    params.duty_cycle = duty;
    params.duration = envelope.duration();
    points.push_back(params);
  }
  const std::vector<Fig8Result> results = Sweep(options.jobs, points, envelope, &RunFig8);

  Rows rows;
  AddEnvelope(&rows, envelope);
  double energy[4];
  double delivery[4];
  for (size_t d = 0; d < 4; ++d) {
    const RunningStat stat = StatOf(results, d, envelope, &Fig8Result::energy_per_event);
    const RunningStat delivered = StatOf(results, d, envelope, &Fig8Result::delivery_rate, 100.0);
    energy[d] = stat.mean();
    delivery[d] = delivered.mean();
    const std::string name = DutyName(duties[d]);
    AddStat(&rows, name + "_energy_per_event", "energy/event", stat);
    AddStat(&rows, name + "_delivery", "%", delivered);
    Add(&rows, name + "_latency", "s",
        StatOf(results, d, envelope, &Fig8Result::mean_latency_s).mean());
    Add(&rows, name + "_model_listen_fraction", "%",
        ListenEnergyFraction(duties[d], EnergyRatios{}, PaperTimeShares()) * 100.0);
  }
  Add(&rows, "energy_saving_at_duty_22pct", "x", energy[0] / energy[2]);
  Claim(&rows, "energy_falls_with_duty", energy[0] > energy[1] && energy[1] > energy[2]);
  Claim(&rows, "delivery_intact_at_duty_22pct", delivery[2] >= 0.9 * delivery[0]);
  Claim(&rows, "load_outgrows_duty_10pct", delivery[3] < 0.5 * delivery[0]);
  return rows;
}

// ---- §4.3: micro-diffusion budgets and the tiered deployment --------------
//
// "Micro-diffusion is a subset of our full system, retaining only gradients,
// condensing attributes to a single tag ... it adds only 2050 bytes of code
// and 106 bytes of data to its host operating system ... statically
// configured to support 5 active gradients and a cache of 10 packets of the
// 2 relevant bytes per packet."
//
// The engine's static state budget (the code-size claim is compiler- and
// ISA-specific; the data budget is the enforceable one), wire compatibility
// with full diffusion, and the tiered deployment end to end: a 2-hop mote
// tier gatewayed into a 2-hop full-diffusion tier.
Rows Micro(const Options& /*options*/) {
  Rows rows;
  Add(&rows, "gradient_slots", "slots", static_cast<double>(MicroNode::kMaxGradients));
  Add(&rows, "cache_entries", "entries", static_cast<double>(MicroNode::kCacheEntries));
  Add(&rows, "state_bytes", "bytes", static_cast<double>(MicroNode::StateBytes()));
  Add(&rows, "interest_wire_bytes", "bytes", static_cast<double>(kMicroInterestWireSize));
  Add(&rows, "data_wire_bytes", "bytes", static_cast<double>(kMicroDataWireSize));
  Claim(&rows, "gradient_budget_5", MicroNode::kMaxGradients == 5);
  Claim(&rows, "cache_budget_10", MicroNode::kCacheEntries == 10);
  Claim(&rows, "state_within_106_bytes", MicroNode::StateBytes() <= 106);

  // Wire compatibility: a full node parses a micro packet.
  MicroMessage micro;
  micro.type = MessageType::kData;
  micro.origin = 7;
  micro.origin_seq = 1;
  micro.tag = 42;
  micro.has_value = true;
  micro.value = 1234;
  uint8_t buffer[kMicroMaxWireSize];
  const size_t size = MicroEncode(micro, buffer);
  Claim(&rows, "header_compatible",
        Message::Deserialize(std::vector<uint8_t>(buffer, buffer + size)).has_value());

  // Tiered deployment: 3 motes -> gateway -> 3 full nodes -> user.
  Simulator sim(5);
  auto upper_topology = std::make_unique<ExplicitTopology>();
  upper_topology->AddSymmetricLink(1, 2);
  upper_topology->AddSymmetricLink(2, 3);
  Channel upper(&sim, std::move(upper_topology));
  auto mote_topology = std::make_unique<ExplicitTopology>();
  mote_topology->AddSymmetricLink(100, 101);
  mote_topology->AddSymmetricLink(101, 102);
  Channel mote_channel(&sim, std::move(mote_topology));

  const RadioConfig rconfig = TestbedRadioConfig();
  DiffusionNode user(&sim, &upper, 1, NodeOptions{.radio = rconfig});
  DiffusionNode relay(&sim, &upper, 2, NodeOptions{.radio = rconfig});
  DiffusionNode gateway_full(&sim, &upper, 3, NodeOptions{.radio = rconfig});
  MicroNode gateway_mote(&sim, &mote_channel, 100, rconfig);
  MicroNode mote_relay(&sim, &mote_channel, 101, rconfig);
  MicroNode sensor(&sim, &mote_channel, 102, rconfig);

  MicroGateway gateway(&gateway_full, &gateway_mote);
  constexpr MicroTag kPhotoTag = 9;
  gateway.Bridge(kPhotoTag, {Attribute::String(kKeyType, AttrOp::kIs, "photo")});

  size_t readings_received = 0;
  (void)user.Subscribe({ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "photo")},
                       [&readings_received](const AttributeVector&) { ++readings_received; });
  sim.RunUntil(5 * kSecond);

  // Mote readings every 2 s for a minute, two hops across the mote tier.
  constexpr int kReadings = 30;
  for (int i = 0; i < kReadings; ++i) {
    sim.After(i * 2 * kSecond, [&sensor, i] { sensor.SendData(kPhotoTag, 100 + i); });
  }
  sim.RunUntil(2 * kMinute);

  Add(&rows, "readings_bridged", "readings", static_cast<double>(gateway.readings_bridged()));
  Add(&rows, "readings_delivered", "readings", static_cast<double>(readings_received));
  Add(&rows, "mote_relay_forwarded", "packets", static_cast<double>(mote_relay.stats().forwarded));
  Claim(&rows, "tasked_by_full_tier_interest", gateway.TagTasked(kPhotoTag));
  Claim(&rows, "all_readings_delivered", readings_received == kReadings);
  return rows;
}

// ---- §3.1/§6.4: local repair under faults ---------------------------------
//
// "When a reinforced path fails, it is locally repaired": there is no repair
// protocol to trigger. The next exploratory flood and interest refresh
// re-excite whatever paths survive, and reinforcement moves delivery onto
// them. The Figure-7 surveillance workload (one source) takes a
// deterministic fault at 4 min (src/fault/scenarios.h): the busiest relay
// on the reinforced path crashes for good, the bridge node's links fall to
// 25% delivery, or the source side is cut off, the last two healed at 7
// min. Expected shape: every scenario resumes delivery within its bound, 2x
// the interest refresh period, with no dedicated recovery machinery.
Rows Fault(const Options& options) {
  const FaultScenario scenarios[] = {FaultScenario::kCrash, FaultScenario::kDegrade,
                                     FaultScenario::kPartition};
  // One run each, at the params' seed 1; the schedule is the scenarios' own.
  const std::vector<FaultScenarioResult> results = bench::RunReplicates<FaultScenarioResult>(
      options.jobs, 3, "", nullptr, [&scenarios](size_t s, TraceSink* /*sink*/) {
        FaultScenarioParams params;
        params.scenario = scenarios[s];
        return RunFaultScenario(params);
      });

  Rows rows;
  for (size_t s = 0; s < 3; ++s) {
    const FaultScenarioResult& result = results[s];
    const std::string name = FaultScenarioName(scenarios[s]);
    Add(&rows, name + "_time_to_repair", "s", result.time_to_repair_s);
    Add(&rows, name + "_repair_bound", "s", result.repair_bound_s);
    Add(&rows, name + "_delivery_pre", "%", result.delivery_pre * 100.0);
    Add(&rows, name + "_delivery_during", "%", result.delivery_during * 100.0);
    Add(&rows, name + "_delivery_post", "%", result.delivery_post * 100.0);
    Add(&rows, name + "_events_lost_during_outage", "events",
        static_cast<double>(result.events_lost_during_outage));
    Add(&rows, name + "_reinforcements_after_fault", "msgs",
        static_cast<double>(result.reinforcements_after_fault));
    Add(&rows, name + "_negative_reinforcements_after_fault", "msgs",
        static_cast<double>(result.negative_reinforcements_after_fault));
    Add(&rows, name + "_stale_gradients_at_sample", "gradients",
        static_cast<double>(result.stale_gradients_at_sample));
    if (result.faulted_node != kBroadcastId) {
      Add(&rows, name + "_faulted_node", "id", static_cast<double>(result.faulted_node));
    }
  }
  for (size_t s = 0; s < 3; ++s) {
    Claim(&rows, std::string(FaultScenarioName(scenarios[s])) + "_repaired_within_bound",
          results[s].time_to_repair_s >= 0.0 &&
              results[s].time_to_repair_s <= results[s].repair_bound_s);
  }
  // Informational: after the heal, the next surveillance event already gets
  // through (EXPERIMENTS.md marks it ✗).
  const FaultScenarioResult& degrade = results[1];
  Claim(&rows, "degrade_repaired_within_one_event_interval",
        degrade.time_to_repair_s >= 0.0 &&
            degrade.time_to_repair_s <= DurationToSeconds(SurveillanceConfig{}.event_interval));
  return rows;
}

// ---- §6.1: the congested MAC, shaped and unshaped -------------------------
//
// The paper's MAC has no congestion story: "55-80%" delivery under load. The
// surveillance workload is driven into collapse three ways, each run without
// and with ReferenceShapingPolicy() (src/testbed/congestion.h):
//
//   sweep     five sensors report one event sequence at a shrinking interval,
//             from the paper's 6 s down to 46 ms, past the channel's
//             carrying capacity on the testbed's ~5-hop paths
//   flooder   one source publishes at ~24x the agreed rate beside three
//             well-behaved ones, against a flooder-free baseline; again at
//             18 minutes, since 6-minute flooder runs are warmup-dominated
//   fairness  sinks 28 and 39 subscribe concurrently at 4x load
//
// Expected shape: unshaped delivery collapses as the interval shrinks while
// shaped delivery degrades gracefully; the flooder starves well-behaved
// traffic only when shaping is off; two shaped sinks split delivery evenly.
Rows Congestion(const Options& options) {
  const Envelope envelope{1, 6, 1};
  const SimDuration intervals[] = {6 * kSecond, 3 * kSecond, 1500 * kMillisecond,
                                   750 * kMillisecond, 375 * kMillisecond, 187 * kMillisecond,
                                   93 * kMillisecond, 46 * kMillisecond};
  const TrafficPolicy shaped = ReferenceShapingPolicy();
  std::vector<std::string> labels;
  std::vector<CongestionRunParams> points;
  // Adds `params` unshaped and shaped, as "<label>_unshaped" and
  // "<label>_shaped".
  const auto add_pair = [&](const std::string& label, CongestionRunParams params) {
    labels.push_back(label + "_unshaped");
    points.push_back(params);
    params.policy = shaped;
    labels.push_back(label + "_shaped");
    points.push_back(params);
  };
  CongestionRunParams base;
  base.end_at = envelope.duration();
  for (SimDuration interval : intervals) {
    CongestionRunParams params = base;
    params.sources = 5;
    params.event_interval = interval;
    add_pair("sweep_" + std::to_string(interval / kMillisecond) + "ms", params);
  }
  const auto add_flooder = [&](const std::string& label, SimTime end_at) {
    CongestionRunParams params = base;
    params.sources = 3;  // the flooder runs' well-behaved set
    params.end_at = end_at;
    labels.push_back(label + "_baseline");
    points.push_back(params);
    params.flooder = true;
    add_pair(label, params);
  };
  add_flooder("flooder", envelope.duration());
  CongestionRunParams fairness = base;
  fairness.second_sink = true;
  fairness.event_interval = 1500 * kMillisecond;
  add_pair("fairness", fairness);
  add_flooder("flooder_18min", 18 * kMinute);
  const std::vector<CongestionRunResult> results =
      Sweep(options.jobs, points, envelope, &RunCongestionScenario);

  Rows rows;
  for (size_t i = 0; i < points.size(); ++i) {
    const CongestionRunResult& r = results[i];
    const std::string& label = labels[i];
    Add(&rows, label + "_delivery", "%", r.delivery * 100.0);
    Add(&rows, label + "_bytes_sent", "bytes", r.bytes_sent);
    Add(&rows, label + "_drops_queue_full", "frames", static_cast<double>(r.mac_drops_queue_full));
    Add(&rows, label + "_drops_rate_limited", "frames",
        static_cast<double>(r.mac_drops_rate_limited));
    if (points[i].second_sink) {
      Add(&rows, label + "_delivery_second", "%", r.delivery_second * 100.0);
    }
    if (points[i].flooder) {
      Add(&rows, label + "_flooder_events", "events",
          static_cast<double>(r.flooder_events_generated));
    }
    if (points[i].policy.AnyLayerEnabled()) {
      Add(&rows, label + "_transmits_jittered", "msgs", static_cast<double>(r.transmits_jittered));
    }
  }
  const auto run = [&](const std::string& label) -> const CongestionRunResult& {
    const auto at = std::find(labels.begin(), labels.end(), label);
    return results[static_cast<size_t>(at - labels.begin())];
  };
  const double unshaped_top = run("sweep_46ms_unshaped").delivery;
  const double shaped_top = run("sweep_46ms_shaped").delivery;
  const double gain =
      unshaped_top > 0.0 ? shaped_top / unshaped_top : (shaped_top > 0.0 ? 1e9 : 0.0);
  Add(&rows, "sweep_top_shaping_gain", "x", gain);
  // The share of its flooder-free delivery that well-behaved traffic loses
  // to the flooder with shaping on.
  const auto degradation = [&](const std::string& label) {
    const double baseline = run(label + "_baseline").delivery;
    return baseline > 0.0 ? 1.0 - run(label + "_shaped").delivery / baseline : 1.0;
  };
  Add(&rows, "flooder_degradation", "fraction", degradation("flooder"));
  const CongestionRunResult& fair = run("fairness_shaped");
  const double hi = std::max(fair.delivery, fair.delivery_second);
  const double fairness_ratio = hi > 0.0 ? std::min(fair.delivery, fair.delivery_second) / hi : 0.0;
  Add(&rows, "fairness_min_max_ratio", "ratio", fairness_ratio);
  const double long_flooder_degradation = degradation("flooder_18min");
  Add(&rows, "flooder_18min_degradation", "fraction", long_flooder_degradation);
  Claim(&rows, "shaping_gain_at_least_2x", gain >= 2.0);
  Claim(&rows, "flooder_18min_degradation_at_most_0_2", long_flooder_degradation <= 0.2);
  Claim(&rows, "fairness_at_least_0_6", fairness_ratio >= 0.6);
  return rows;
}

// The sections, in the order they run and print.
const struct Section {
  const char* name;
  Rows (*run)(const Options& options);
} kSections[] = {
    {"fig8", Fig8},
    {"traffic_model", TrafficModel},
    {"energy_model", EnergyModel},
    {"fig9", Fig9},
    {"fig11_matching", Fig11Matching},
    {"sim_ratio", SimRatio},
    {"geo_scope", GeoScope},
    {"aggregation_strategies", AggregationStrategies},
    {"fig6b_prior_sim", Fig6bPriorSim},
    {"propagation", Propagation},
    {"scaling", Scaling},
    {"variant", Variant},
    {"duty_cycle", DutyCycle},
    {"micro", Micro},
    {"fault", Fault},
    {"congestion", Congestion},
};

// The verdicts a run must hold. One that reads 0 fails a plain run and a
// --check run alike, before anything is written, so re-recording the file
// cannot turn its gate green. A name no section emits fails the same way.
const char* const kRequiredClaims[] = {
    "fault.claim_crash_repaired_within_bound",
    "congestion.claim_shaping_gain_at_least_2x",
    "congestion.claim_flooder_18min_degradation_at_most_0_2",
    "congestion.claim_fairness_at_least_0_6",
};

int Main(int argc, char** argv) {
  std::string out = "BENCH_paper.json";
  std::string check;
  int jobs = 0;
  Options options;
  const std::vector<bench::Flag> flags = {
      {"out", &out, "where to write the JSON; empty writes nothing"},
      {"check", &check, "re-run every section against this file; write nothing"},
      {"jobs", &jobs, "simulation replicate workers; 0 = all cores"},
      {"trace-out", &options.trace_out, "JSONL trace of Figure 8's first replicate"}};
  bench::ParseFlags(argc, argv, flags);
  if (!check.empty() && !options.trace_out.empty()) {
    bench::RefuseFlags(argv[0], flags, "--check writes nothing, so it takes no --trace-out");
  }
  options.jobs = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));
  std::optional<bench::RecordedFile> recorded;
  if (!check.empty()) {
    recorded.emplace(check);
  }

  Rows rows;
  for (const Section& section : kSections) {
    std::printf("=== %s\n", section.name);
    for (bench::BenchResult& row : section.run(options)) {
      row.name = std::string(section.name) + "." + row.name;
      if (row.unit == "claim") {
        std::printf("  %-62s %s\n", row.name.c_str(), row.value == 1.0 ? "holds" : "DOES NOT HOLD");
      } else {
        std::printf("  %-62s %12s %s\n", row.name.c_str(), bench::FormatValue(row.value).c_str(),
                    row.unit.c_str());
      }
      rows.push_back(std::move(row));
    }
    std::fflush(stdout);
  }

  bool gates_hold = true;
  for (const char* name : kRequiredClaims) {
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [name](const bench::BenchResult& r) { return r.name == name; });
    if (row == rows.end() || row->value != 1.0) {
      std::fprintf(stderr, "FAIL: %s %s\n", name, row == rows.end() ? "is missing" : "reads 0");
      gates_hold = false;
    }
  }
  if (!gates_hold) {
    return 1;
  }

  if (recorded.has_value()) {
    recorded->Verify(rows, bench::RecordedRows::kAll);
  } else {
    bench::WriteBenchJson(out, "paper_claims", rows);
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }

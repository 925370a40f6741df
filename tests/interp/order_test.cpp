// Topological order bounds (§2.1: "an upper estimate on K must be done").
#include "interp/order.h"

#include <gtest/gtest.h>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "netlist/canonical.h"
#include "support/strings.h"

namespace symref::interp {
namespace {

TEST(OrderBound, LadderIsExact) {
  for (const int n : {1, 3, 7, 12}) {
    const netlist::Circuit ladder = circuits::rc_ladder(n);
    EXPECT_EQ(capacitor_element_bound(ladder), n);
    EXPECT_EQ(capacitor_rank_bound(ladder), n);
    EXPECT_EQ(denominator_order_bound(netlist::canonicalize(ladder)), n);
  }
}

TEST(OrderBound, CapacitorLoopReducesRank) {
  // Three capacitors in a triangle: element bound 3, rank 2 (one loop).
  netlist::Circuit c;
  c.add_capacitor("c1", "a", "b", 1e-12);
  c.add_capacitor("c2", "b", "c", 1e-12);
  c.add_capacitor("c3", "c", "a", 1e-12);
  c.add_resistor("r1", "a", "0", 1e3);
  c.add_resistor("r2", "b", "0", 1e3);
  c.add_resistor("r3", "c", "0", 1e3);
  EXPECT_EQ(capacitor_element_bound(c), 3);
  EXPECT_EQ(capacitor_rank_bound(c), 2);
}

TEST(OrderBound, GroundedCapLoopThroughGround) {
  // Two grounded caps plus one bridging cap: a loop through ground.
  netlist::Circuit c;
  c.add_capacitor("c1", "a", "0", 1e-12);
  c.add_capacitor("c2", "b", "0", 1e-12);
  c.add_capacitor("c3", "a", "b", 1e-12);
  c.add_resistor("r1", "a", "0", 1e3);
  EXPECT_EQ(capacitor_element_bound(c), 3);
  EXPECT_EQ(capacitor_rank_bound(c), 2);
}

TEST(OrderBound, SelfLoopCapacitorIgnored) {
  netlist::Circuit c;
  const int a = c.node("a");
  netlist::Element e;
  e.kind = netlist::ElementKind::Capacitor;
  e.name = "cself";
  e.node_pos = a;
  e.node_neg = a;
  e.value = 1e-12;
  c.add(std::move(e));
  EXPECT_EQ(capacitor_element_bound(c), 0);
  EXPECT_EQ(capacitor_rank_bound(c), 0);
}

TEST(OrderBound, OtaFig1ElementCountIsPaperEstimate) {
  // The paper's "upper estimate on the polynomial order ... is 9" for the
  // Fig. 1 OTA — the capacitor element count.
  const netlist::Circuit ota = circuits::ota_fig1();
  EXPECT_EQ(capacitor_element_bound(ota), circuits::kOtaFig1OrderEstimate);
  // The rank/dimension-aware bound is tighter — this is exactly why most
  // coefficients in Table 1a are round-off garbage.
  EXPECT_LT(denominator_order_bound(netlist::canonicalize(ota)),
            circuits::kOtaFig1OrderEstimate);
}

TEST(OrderBound, Ua741IsLarge) {
  const netlist::Circuit ua = circuits::ua741();
  EXPECT_GE(capacitor_element_bound(ua), 50);
  const int bound = denominator_order_bound(netlist::canonicalize(ua));
  EXPECT_GE(bound, 35);  // the paper's example has ~48 denominator coefficients
  EXPECT_LE(bound, 60);
}

TEST(OrderBound, DimensionCapsTheBound) {
  // Many caps on two nodes: rank <= 2 regardless of element count.
  netlist::Circuit c;
  for (int i = 0; i < 6; ++i) {
    c.add_capacitor(support::numbered("c", i), "a", i % 2 ? "b" : "0", 1e-12);
  }
  c.add_resistor("r1", "a", "b", 1e3);
  EXPECT_EQ(capacitor_rank_bound(c), 2);
  EXPECT_EQ(denominator_order_bound(c), 2);
}

}  // namespace
}  // namespace symref::interp

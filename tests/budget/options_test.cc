// Tests of budget/options.h: BudgetOptions validation.

#include "budget/options.h"

#include <gtest/gtest.h>

namespace aid {
namespace {

TEST(BudgetOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(ValidateBudgetOptions(BudgetOptions{}).ok());
}

TEST(BudgetOptionsTest, RejectsOutOfRangeKnobs) {
  const auto expect_invalid = [](BudgetOptions options) {
    const Status status = ValidateBudgetOptions(options);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  };
  BudgetOptions o;
  o.error_tolerance = 0.0;
  expect_invalid(o);
  o = {};
  o.error_tolerance = 0.5;
  expect_invalid(o);
  o = {};
  o.causal_prior = 1.0;
  expect_invalid(o);
  o = {};
  o.max_trials_per_round = -1;
  expect_invalid(o);
  o = {};
  o.max_trials_per_round = kMaxBudgetTrialsPerRound + 1;
  expect_invalid(o);
  o = {};
  o.flakiness_prior_alpha = 0.0;
  expect_invalid(o);
  o = {};
  o.flakiness_prior_beta = -1.0;
  expect_invalid(o);
}

}  // namespace
}  // namespace aid

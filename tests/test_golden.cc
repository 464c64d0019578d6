/**
 * @file
 * Golden RunResult fingerprints. Every kernel runs at Scale::Tiny on
 * each backend (P8, P8S, L1TM, InfCap) with hints off and on, on 8-,
 * 32- and 64-context machines: 240 cold simulations through
 * core::simulate with no result cache. Each result is reduced to
 * fnv1a(encodeRunResult(r)) and compared with the checked-in table, so
 * a refactor that claims to change no result is held to that exactly.
 *
 * On a mismatch the test prints the replacement table line. Update the
 * table only for a change that is meant to alter simulated behaviour.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

using K = htm::HtmKind;
using M = core::Mechanism;

struct Golden
{
    const char *kernel;
    K kind;
    M mech;
    unsigned contexts;
    std::uint64_t fp;
};

// clang-format off
const Golden golden[] = {
    {"bayes", K::P8, M::Baseline, 8, 0xa1da19ee4167eee7ull},
    {"bayes", K::P8, M::Full, 8, 0x7d150e863c532352ull},
    {"bayes", K::P8S, M::Baseline, 8, 0xa1da19ee4167eee7ull},
    {"bayes", K::P8S, M::Full, 8, 0x7d150e863c532352ull},
    {"bayes", K::L1TM, M::Baseline, 8, 0xa1da19ee4167eee7ull},
    {"bayes", K::L1TM, M::Full, 8, 0x7d150e863c532352ull},
    {"bayes", K::InfCap, M::Baseline, 8, 0xa1da19ee4167eee7ull},
    {"bayes", K::InfCap, M::Full, 8, 0x7d150e863c532352ull},
    {"bayes", K::P8, M::Baseline, 32, 0x2407c6dd98f0f58bull},
    {"bayes", K::P8, M::Full, 32, 0x55b78fc74e463fb6ull},
    {"bayes", K::P8S, M::Baseline, 32, 0x2407c6dd98f0f58bull},
    {"bayes", K::P8S, M::Full, 32, 0x55b78fc74e463fb6ull},
    {"bayes", K::L1TM, M::Baseline, 32, 0x2407c6dd98f0f58bull},
    {"bayes", K::L1TM, M::Full, 32, 0x55b78fc74e463fb6ull},
    {"bayes", K::InfCap, M::Baseline, 32, 0x2407c6dd98f0f58bull},
    {"bayes", K::InfCap, M::Full, 32, 0x55b78fc74e463fb6ull},
    {"bayes", K::P8, M::Baseline, 64, 0xbbb4007c8c91c96aull},
    {"bayes", K::P8, M::Full, 64, 0x3029644874e7fe10ull},
    {"bayes", K::P8S, M::Baseline, 64, 0xbbb4007c8c91c96aull},
    {"bayes", K::P8S, M::Full, 64, 0x3029644874e7fe10ull},
    {"bayes", K::L1TM, M::Baseline, 64, 0xbbb4007c8c91c96aull},
    {"bayes", K::L1TM, M::Full, 64, 0x3029644874e7fe10ull},
    {"bayes", K::InfCap, M::Baseline, 64, 0xbbb4007c8c91c96aull},
    {"bayes", K::InfCap, M::Full, 64, 0x3029644874e7fe10ull},
    {"genome", K::P8, M::Baseline, 8, 0xf68062552af4babdull},
    {"genome", K::P8, M::Full, 8, 0x09d649a0688bf0d4ull},
    {"genome", K::P8S, M::Baseline, 8, 0xf68062552af4babdull},
    {"genome", K::P8S, M::Full, 8, 0x09d649a0688bf0d4ull},
    {"genome", K::L1TM, M::Baseline, 8, 0xf68062552af4babdull},
    {"genome", K::L1TM, M::Full, 8, 0x09d649a0688bf0d4ull},
    {"genome", K::InfCap, M::Baseline, 8, 0xf68062552af4babdull},
    {"genome", K::InfCap, M::Full, 8, 0x09d649a0688bf0d4ull},
    {"genome", K::P8, M::Baseline, 32, 0x011dbee19ec82e74ull},
    {"genome", K::P8, M::Full, 32, 0x5d1b5174f5ebfb72ull},
    {"genome", K::P8S, M::Baseline, 32, 0x011dbee19ec82e74ull},
    {"genome", K::P8S, M::Full, 32, 0x5d1b5174f5ebfb72ull},
    {"genome", K::L1TM, M::Baseline, 32, 0x011dbee19ec82e74ull},
    {"genome", K::L1TM, M::Full, 32, 0x5d1b5174f5ebfb72ull},
    {"genome", K::InfCap, M::Baseline, 32, 0x011dbee19ec82e74ull},
    {"genome", K::InfCap, M::Full, 32, 0x5d1b5174f5ebfb72ull},
    {"genome", K::P8, M::Baseline, 64, 0x578c03febd518f40ull},
    {"genome", K::P8, M::Full, 64, 0x7f47611d9ec9b5c4ull},
    {"genome", K::P8S, M::Baseline, 64, 0x578c03febd518f40ull},
    {"genome", K::P8S, M::Full, 64, 0x7f47611d9ec9b5c4ull},
    {"genome", K::L1TM, M::Baseline, 64, 0x578c03febd518f40ull},
    {"genome", K::L1TM, M::Full, 64, 0x7f47611d9ec9b5c4ull},
    {"genome", K::InfCap, M::Baseline, 64, 0x578c03febd518f40ull},
    {"genome", K::InfCap, M::Full, 64, 0x7f47611d9ec9b5c4ull},
    {"intruder", K::P8, M::Baseline, 8, 0x701cb17690a01099ull},
    {"intruder", K::P8, M::Full, 8, 0xe7e7e0bdac0df018ull},
    {"intruder", K::P8S, M::Baseline, 8, 0x701cb17690a01099ull},
    {"intruder", K::P8S, M::Full, 8, 0xe7e7e0bdac0df018ull},
    {"intruder", K::L1TM, M::Baseline, 8, 0x701cb17690a01099ull},
    {"intruder", K::L1TM, M::Full, 8, 0xe7e7e0bdac0df018ull},
    {"intruder", K::InfCap, M::Baseline, 8, 0x701cb17690a01099ull},
    {"intruder", K::InfCap, M::Full, 8, 0xe7e7e0bdac0df018ull},
    {"intruder", K::P8, M::Baseline, 32, 0xb3f88822a5f05271ull},
    {"intruder", K::P8, M::Full, 32, 0x150679652eeadf9aull},
    {"intruder", K::P8S, M::Baseline, 32, 0xb3f88822a5f05271ull},
    {"intruder", K::P8S, M::Full, 32, 0x150679652eeadf9aull},
    {"intruder", K::L1TM, M::Baseline, 32, 0xb3f88822a5f05271ull},
    {"intruder", K::L1TM, M::Full, 32, 0x150679652eeadf9aull},
    {"intruder", K::InfCap, M::Baseline, 32, 0xb3f88822a5f05271ull},
    {"intruder", K::InfCap, M::Full, 32, 0x150679652eeadf9aull},
    {"intruder", K::P8, M::Baseline, 64, 0x1a3656c315e01cf7ull},
    {"intruder", K::P8, M::Full, 64, 0x84baa56140246070ull},
    {"intruder", K::P8S, M::Baseline, 64, 0x1a3656c315e01cf7ull},
    {"intruder", K::P8S, M::Full, 64, 0x84baa56140246070ull},
    {"intruder", K::L1TM, M::Baseline, 64, 0x1a3656c315e01cf7ull},
    {"intruder", K::L1TM, M::Full, 64, 0x84baa56140246070ull},
    {"intruder", K::InfCap, M::Baseline, 64, 0x1a3656c315e01cf7ull},
    {"intruder", K::InfCap, M::Full, 64, 0x84baa56140246070ull},
    {"kmeans", K::P8, M::Baseline, 8, 0x5a2c2023c0d475a3ull},
    {"kmeans", K::P8, M::Full, 8, 0x898cf2401c2a61f9ull},
    {"kmeans", K::P8S, M::Baseline, 8, 0x5a2c2023c0d475a3ull},
    {"kmeans", K::P8S, M::Full, 8, 0x898cf2401c2a61f9ull},
    {"kmeans", K::L1TM, M::Baseline, 8, 0x5a2c2023c0d475a3ull},
    {"kmeans", K::L1TM, M::Full, 8, 0x898cf2401c2a61f9ull},
    {"kmeans", K::InfCap, M::Baseline, 8, 0x5a2c2023c0d475a3ull},
    {"kmeans", K::InfCap, M::Full, 8, 0x898cf2401c2a61f9ull},
    {"kmeans", K::P8, M::Baseline, 32, 0xc381300c594d0c3bull},
    {"kmeans", K::P8, M::Full, 32, 0xeb7e7e61bb713bb6ull},
    {"kmeans", K::P8S, M::Baseline, 32, 0xc381300c594d0c3bull},
    {"kmeans", K::P8S, M::Full, 32, 0xeb7e7e61bb713bb6ull},
    {"kmeans", K::L1TM, M::Baseline, 32, 0xc381300c594d0c3bull},
    {"kmeans", K::L1TM, M::Full, 32, 0xeb7e7e61bb713bb6ull},
    {"kmeans", K::InfCap, M::Baseline, 32, 0xc381300c594d0c3bull},
    {"kmeans", K::InfCap, M::Full, 32, 0xeb7e7e61bb713bb6ull},
    {"kmeans", K::P8, M::Baseline, 64, 0x73b914f9c39bedabull},
    {"kmeans", K::P8, M::Full, 64, 0x64f727dece75c096ull},
    {"kmeans", K::P8S, M::Baseline, 64, 0x73b914f9c39bedabull},
    {"kmeans", K::P8S, M::Full, 64, 0x64f727dece75c096ull},
    {"kmeans", K::L1TM, M::Baseline, 64, 0x73b914f9c39bedabull},
    {"kmeans", K::L1TM, M::Full, 64, 0x64f727dece75c096ull},
    {"kmeans", K::InfCap, M::Baseline, 64, 0x73b914f9c39bedabull},
    {"kmeans", K::InfCap, M::Full, 64, 0x64f727dece75c096ull},
    {"labyrinth", K::P8, M::Baseline, 8, 0x768b10dd206f20deull},
    {"labyrinth", K::P8, M::Full, 8, 0xc1323f2179ae2e47ull},
    {"labyrinth", K::P8S, M::Baseline, 8, 0x768b10dd206f20deull},
    {"labyrinth", K::P8S, M::Full, 8, 0xc1323f2179ae2e47ull},
    {"labyrinth", K::L1TM, M::Baseline, 8, 0x768b10dd206f20deull},
    {"labyrinth", K::L1TM, M::Full, 8, 0xc1323f2179ae2e47ull},
    {"labyrinth", K::InfCap, M::Baseline, 8, 0x768b10dd206f20deull},
    {"labyrinth", K::InfCap, M::Full, 8, 0xc1323f2179ae2e47ull},
    {"labyrinth", K::P8, M::Baseline, 32, 0x8f64e9f9b1d9e320ull},
    {"labyrinth", K::P8, M::Full, 32, 0x058e67cbd041e36cull},
    {"labyrinth", K::P8S, M::Baseline, 32, 0x8f64e9f9b1d9e320ull},
    {"labyrinth", K::P8S, M::Full, 32, 0x058e67cbd041e36cull},
    {"labyrinth", K::L1TM, M::Baseline, 32, 0x8f64e9f9b1d9e320ull},
    {"labyrinth", K::L1TM, M::Full, 32, 0x058e67cbd041e36cull},
    {"labyrinth", K::InfCap, M::Baseline, 32, 0x8f64e9f9b1d9e320ull},
    {"labyrinth", K::InfCap, M::Full, 32, 0x058e67cbd041e36cull},
    {"labyrinth", K::P8, M::Baseline, 64, 0x39e70f1ea9255becull},
    {"labyrinth", K::P8, M::Full, 64, 0xefadd5a271a3ef88ull},
    {"labyrinth", K::P8S, M::Baseline, 64, 0x39e70f1ea9255becull},
    {"labyrinth", K::P8S, M::Full, 64, 0xefadd5a271a3ef88ull},
    {"labyrinth", K::L1TM, M::Baseline, 64, 0x39e70f1ea9255becull},
    {"labyrinth", K::L1TM, M::Full, 64, 0xefadd5a271a3ef88ull},
    {"labyrinth", K::InfCap, M::Baseline, 64, 0x39e70f1ea9255becull},
    {"labyrinth", K::InfCap, M::Full, 64, 0xefadd5a271a3ef88ull},
    {"ssca2", K::P8, M::Baseline, 8, 0x607fc8b6015d3530ull},
    {"ssca2", K::P8, M::Full, 8, 0x8c1c25be10db720full},
    {"ssca2", K::P8S, M::Baseline, 8, 0x607fc8b6015d3530ull},
    {"ssca2", K::P8S, M::Full, 8, 0x8c1c25be10db720full},
    {"ssca2", K::L1TM, M::Baseline, 8, 0x607fc8b6015d3530ull},
    {"ssca2", K::L1TM, M::Full, 8, 0x8c1c25be10db720full},
    {"ssca2", K::InfCap, M::Baseline, 8, 0x607fc8b6015d3530ull},
    {"ssca2", K::InfCap, M::Full, 8, 0x8c1c25be10db720full},
    {"ssca2", K::P8, M::Baseline, 32, 0x027731788d3c9728ull},
    {"ssca2", K::P8, M::Full, 32, 0x598b022723bbedf1ull},
    {"ssca2", K::P8S, M::Baseline, 32, 0x027731788d3c9728ull},
    {"ssca2", K::P8S, M::Full, 32, 0x598b022723bbedf1ull},
    {"ssca2", K::L1TM, M::Baseline, 32, 0x027731788d3c9728ull},
    {"ssca2", K::L1TM, M::Full, 32, 0x598b022723bbedf1ull},
    {"ssca2", K::InfCap, M::Baseline, 32, 0x027731788d3c9728ull},
    {"ssca2", K::InfCap, M::Full, 32, 0x598b022723bbedf1ull},
    {"ssca2", K::P8, M::Baseline, 64, 0xeed605616dd45bbcull},
    {"ssca2", K::P8, M::Full, 64, 0x3c5ef4e260ab8132ull},
    {"ssca2", K::P8S, M::Baseline, 64, 0xeed605616dd45bbcull},
    {"ssca2", K::P8S, M::Full, 64, 0x3c5ef4e260ab8132ull},
    {"ssca2", K::L1TM, M::Baseline, 64, 0xeed605616dd45bbcull},
    {"ssca2", K::L1TM, M::Full, 64, 0x3c5ef4e260ab8132ull},
    {"ssca2", K::InfCap, M::Baseline, 64, 0xeed605616dd45bbcull},
    {"ssca2", K::InfCap, M::Full, 64, 0x3c5ef4e260ab8132ull},
    {"vacation", K::P8, M::Baseline, 8, 0x737719e362fe7a92ull},
    {"vacation", K::P8, M::Full, 8, 0xc1f2c98c2104917dull},
    {"vacation", K::P8S, M::Baseline, 8, 0x737719e362fe7a92ull},
    {"vacation", K::P8S, M::Full, 8, 0xc1f2c98c2104917dull},
    {"vacation", K::L1TM, M::Baseline, 8, 0x737719e362fe7a92ull},
    {"vacation", K::L1TM, M::Full, 8, 0xc1f2c98c2104917dull},
    {"vacation", K::InfCap, M::Baseline, 8, 0x737719e362fe7a92ull},
    {"vacation", K::InfCap, M::Full, 8, 0xc1f2c98c2104917dull},
    {"vacation", K::P8, M::Baseline, 32, 0xb60f6e714bc7cb0bull},
    {"vacation", K::P8, M::Full, 32, 0xaeb4a3ab03092bfeull},
    {"vacation", K::P8S, M::Baseline, 32, 0xb60f6e714bc7cb0bull},
    {"vacation", K::P8S, M::Full, 32, 0xaeb4a3ab03092bfeull},
    {"vacation", K::L1TM, M::Baseline, 32, 0xb60f6e714bc7cb0bull},
    {"vacation", K::L1TM, M::Full, 32, 0xaeb4a3ab03092bfeull},
    {"vacation", K::InfCap, M::Baseline, 32, 0xb60f6e714bc7cb0bull},
    {"vacation", K::InfCap, M::Full, 32, 0xaeb4a3ab03092bfeull},
    {"vacation", K::P8, M::Baseline, 64, 0x61a6b51911e49271ull},
    {"vacation", K::P8, M::Full, 64, 0x3f17bb5476407498ull},
    {"vacation", K::P8S, M::Baseline, 64, 0x61a6b51911e49271ull},
    {"vacation", K::P8S, M::Full, 64, 0x3f17bb5476407498ull},
    {"vacation", K::L1TM, M::Baseline, 64, 0x61a6b51911e49271ull},
    {"vacation", K::L1TM, M::Full, 64, 0x3f17bb5476407498ull},
    {"vacation", K::InfCap, M::Baseline, 64, 0x61a6b51911e49271ull},
    {"vacation", K::InfCap, M::Full, 64, 0x3f17bb5476407498ull},
    {"yada", K::P8, M::Baseline, 8, 0x120b893ce37867c6ull},
    {"yada", K::P8, M::Full, 8, 0x6c2a81e75e95f98cull},
    {"yada", K::P8S, M::Baseline, 8, 0x120b893ce37867c6ull},
    {"yada", K::P8S, M::Full, 8, 0x6c2a81e75e95f98cull},
    {"yada", K::L1TM, M::Baseline, 8, 0x120b893ce37867c6ull},
    {"yada", K::L1TM, M::Full, 8, 0x6c2a81e75e95f98cull},
    {"yada", K::InfCap, M::Baseline, 8, 0x120b893ce37867c6ull},
    {"yada", K::InfCap, M::Full, 8, 0x6c2a81e75e95f98cull},
    {"yada", K::P8, M::Baseline, 32, 0xc0541452a3ad2347ull},
    {"yada", K::P8, M::Full, 32, 0x255660d7a422f4c8ull},
    {"yada", K::P8S, M::Baseline, 32, 0xc0541452a3ad2347ull},
    {"yada", K::P8S, M::Full, 32, 0x255660d7a422f4c8ull},
    {"yada", K::L1TM, M::Baseline, 32, 0xc0541452a3ad2347ull},
    {"yada", K::L1TM, M::Full, 32, 0x255660d7a422f4c8ull},
    {"yada", K::InfCap, M::Baseline, 32, 0xc0541452a3ad2347ull},
    {"yada", K::InfCap, M::Full, 32, 0x255660d7a422f4c8ull},
    {"yada", K::P8, M::Baseline, 64, 0xf08acb8965b6ed37ull},
    {"yada", K::P8, M::Full, 64, 0xaba6e18389b67b40ull},
    {"yada", K::P8S, M::Baseline, 64, 0xf08acb8965b6ed37ull},
    {"yada", K::P8S, M::Full, 64, 0xaba6e18389b67b40ull},
    {"yada", K::L1TM, M::Baseline, 64, 0xf08acb8965b6ed37ull},
    {"yada", K::L1TM, M::Full, 64, 0xaba6e18389b67b40ull},
    {"yada", K::InfCap, M::Baseline, 64, 0xf08acb8965b6ed37ull},
    {"yada", K::InfCap, M::Full, 64, 0xaba6e18389b67b40ull},
    {"tpcc-no", K::P8, M::Baseline, 8, 0x37885f028f8f7613ull},
    {"tpcc-no", K::P8, M::Full, 8, 0xa4d86c77d1655e0aull},
    {"tpcc-no", K::P8S, M::Baseline, 8, 0x37885f028f8f7613ull},
    {"tpcc-no", K::P8S, M::Full, 8, 0xa4d86c77d1655e0aull},
    {"tpcc-no", K::L1TM, M::Baseline, 8, 0x37885f028f8f7613ull},
    {"tpcc-no", K::L1TM, M::Full, 8, 0xa4d86c77d1655e0aull},
    {"tpcc-no", K::InfCap, M::Baseline, 8, 0x37885f028f8f7613ull},
    {"tpcc-no", K::InfCap, M::Full, 8, 0xa4d86c77d1655e0aull},
    {"tpcc-no", K::P8, M::Baseline, 32, 0xf544de625a7ef361ull},
    {"tpcc-no", K::P8, M::Full, 32, 0xaa4133df99d0eb27ull},
    {"tpcc-no", K::P8S, M::Baseline, 32, 0xf544de625a7ef361ull},
    {"tpcc-no", K::P8S, M::Full, 32, 0xaa4133df99d0eb27ull},
    {"tpcc-no", K::L1TM, M::Baseline, 32, 0xf544de625a7ef361ull},
    {"tpcc-no", K::L1TM, M::Full, 32, 0xaa4133df99d0eb27ull},
    {"tpcc-no", K::InfCap, M::Baseline, 32, 0xf544de625a7ef361ull},
    {"tpcc-no", K::InfCap, M::Full, 32, 0xaa4133df99d0eb27ull},
    {"tpcc-no", K::P8, M::Baseline, 64, 0x19c4780ff8d2ceaeull},
    {"tpcc-no", K::P8, M::Full, 64, 0x71477153dc5f47f7ull},
    {"tpcc-no", K::P8S, M::Baseline, 64, 0x19c4780ff8d2ceaeull},
    {"tpcc-no", K::P8S, M::Full, 64, 0x71477153dc5f47f7ull},
    {"tpcc-no", K::L1TM, M::Baseline, 64, 0x19c4780ff8d2ceaeull},
    {"tpcc-no", K::L1TM, M::Full, 64, 0x71477153dc5f47f7ull},
    {"tpcc-no", K::InfCap, M::Baseline, 64, 0x19c4780ff8d2ceaeull},
    {"tpcc-no", K::InfCap, M::Full, 64, 0x71477153dc5f47f7ull},
    {"tpcc-p", K::P8, M::Baseline, 8, 0xf35121bae8dd611cull},
    {"tpcc-p", K::P8, M::Full, 8, 0x7ed1ec8ebd28ca42ull},
    {"tpcc-p", K::P8S, M::Baseline, 8, 0xf35121bae8dd611cull},
    {"tpcc-p", K::P8S, M::Full, 8, 0x7ed1ec8ebd28ca42ull},
    {"tpcc-p", K::L1TM, M::Baseline, 8, 0xf35121bae8dd611cull},
    {"tpcc-p", K::L1TM, M::Full, 8, 0x7ed1ec8ebd28ca42ull},
    {"tpcc-p", K::InfCap, M::Baseline, 8, 0xf35121bae8dd611cull},
    {"tpcc-p", K::InfCap, M::Full, 8, 0x7ed1ec8ebd28ca42ull},
    {"tpcc-p", K::P8, M::Baseline, 32, 0xb0cbbed194eb712eull},
    {"tpcc-p", K::P8, M::Full, 32, 0x590b51ae0e16b1ceull},
    {"tpcc-p", K::P8S, M::Baseline, 32, 0xb0cbbed194eb712eull},
    {"tpcc-p", K::P8S, M::Full, 32, 0x590b51ae0e16b1ceull},
    {"tpcc-p", K::L1TM, M::Baseline, 32, 0xb0cbbed194eb712eull},
    {"tpcc-p", K::L1TM, M::Full, 32, 0x590b51ae0e16b1ceull},
    {"tpcc-p", K::InfCap, M::Baseline, 32, 0xb0cbbed194eb712eull},
    {"tpcc-p", K::InfCap, M::Full, 32, 0x590b51ae0e16b1ceull},
    {"tpcc-p", K::P8, M::Baseline, 64, 0x3ede83ba8c9cb53bull},
    {"tpcc-p", K::P8, M::Full, 64, 0xe1cf236185235d5dull},
    {"tpcc-p", K::P8S, M::Baseline, 64, 0x3ede83ba8c9cb53bull},
    {"tpcc-p", K::P8S, M::Full, 64, 0xe1cf236185235d5dull},
    {"tpcc-p", K::L1TM, M::Baseline, 64, 0x3ede83ba8c9cb53bull},
    {"tpcc-p", K::L1TM, M::Full, 64, 0xe1cf236185235d5dull},
    {"tpcc-p", K::InfCap, M::Baseline, 64, 0x3ede83ba8c9cb53bull},
    {"tpcc-p", K::InfCap, M::Full, 64, 0xe1cf236185235d5dull},
};
// clang-format on

const Golden *
lookup(const std::string &kernel, K kind, M mech, unsigned contexts)
{
    for (const Golden &g : golden) {
        if (kernel == g.kernel && g.kind == kind && g.mech == mech &&
            g.contexts == contexts)
            return &g;
    }
    return nullptr;
}

/** One home node per 16 cores, as in the scaling study. */
unsigned
numaNodesFor(unsigned cores)
{
    return cores >= 16 ? cores / 16 : 1;
}

class GoldenFingerprint : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(GoldenFingerprint, MatchesTable)
{
    const std::string &kernel = GetParam();
    for (unsigned contexts : {8u, 32u, 64u}) {
        workloads::Workload wl = workloads::byName(
            kernel + "@" + std::to_string(contexts),
            workloads::Scale::Tiny);
        core::compileHints(wl.module);
        for (K kind : {K::P8, K::P8S, K::L1TM, K::InfCap}) {
            for (M mech : {M::Baseline, M::Full}) {
                core::SystemOptions o;
                o.htmKind = kind;
                o.mechanism = mech;
                o.numCores = contexts;
                o.numaNodes = numaNodesFor(contexts);
                const std::string enc = bench::encodeRunResult(
                    core::simulate(o, wl.module, wl.threads));
                const std::uint64_t fp = bench::fnv1a(enc.data(),
                                                      enc.size());
                const Golden *g = lookup(kernel, kind, mech, contexts);
                if (g && g->fp == fp)
                    continue;
                char line[160];
                std::snprintf(line, sizeof(line),
                              "    {\"%s\", K::%s, M::%s, %u, "
                              "0x%016" PRIx64 "ull},",
                              kernel.c_str(), htm::htmKindName(kind),
                              mech == M::Full ? "Full" : "Baseline",
                              contexts, fp);
                ADD_FAILURE() << (g ? "fingerprint changed" : "no entry")
                              << "; replacement line:\n"
                              << line;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GoldenFingerprint,
    ::testing::ValuesIn(workloads::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id;
        for (char c : info.param)
            id += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return id;
    });

namespace
{

/** Raw memory/VM statistics of one Tiny run (hints on). */
std::string
rawStatsOf(const std::string &workload, K kind, unsigned cores,
           unsigned numa_nodes)
{
    workloads::Workload wl =
        workloads::byName(workload, workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions o;
    o.htmKind = kind;
    o.mechanism = M::Full;
    o.numCores = cores;
    o.numaNodes = numa_nodes;
    o.collectRawStats = true;
    return core::simulate(o, wl.module, wl.threads).rawStats;
}

} // namespace

// The exact `hintm_run --stats` text (perfbench parses these lines):
// every counter, in this order, with these values.
TEST(GoldenRawStats, KmeansP8EightContexts)
{
    EXPECT_EQ(rawStatsOf("kmeans", K::P8, 8, 1),
              "mem.invalidations 634\n"
              "mem.l1_evictions 0\n"
              "mem.l1_hits 20911\n"
              "mem.l1_misses 803\n"
              "mem.l2_hits 662\n"
              "mem.l2_misses 141\n"
              "mem.numa_remote 0\n"
              "mem.reads 20021\n"
              "mem.upgrades 571\n"
              "mem.writebacks 565\n"
              "mem.writes 1693\n"
              "vm.minor_faults 0\n"
              "vm.shootdown_slaves 7\n"
              "vm.tlb_hits 21266\n"
              "vm.tlb_misses 31\n"
              "vm.unsafe_transitions 1\n");
}

TEST(GoldenRawStats, IntruderL1tmSixtyFourContextsNuma)
{
    EXPECT_EQ(rawStatsOf("intruder@64", K::L1TM, 64, 4),
              "mem.invalidations 1527\n"
              "mem.l1_evictions 0\n"
              "mem.l1_hits 2469\n"
              "mem.l1_misses 2746\n"
              "mem.l2_hits 1702\n"
              "mem.l2_misses 1044\n"
              "mem.numa_remote 2252\n"
              "mem.reads 3482\n"
              "mem.upgrades 289\n"
              "mem.writebacks 444\n"
              "mem.writes 1733\n"
              "vm.minor_faults 1\n"
              "vm.shootdown_slaves 75\n"
              "vm.tlb_hits 3482\n"
              "vm.tlb_misses 346\n"
              "vm.unsafe_transitions 4\n");
}

// Self-test of the output checks: a genuine response passes, and both a
// response with one corrupted byte and a wrong expected value are counted
// as failed operations, for each kind of service the workloads serve.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

int run_selftest() {
  Gen gen(0x5E1F7E57);
  struct Case {
    const char* name;
    std::string source;
    Bytes request;
    Bytes expected;
  };
  Bytes large = large_request(gen);
  Bytes echo = echo_request(gen);
  Bytes image = image_request(Shape{24, 20}, gen);
  std::vector<Case> cases = {
      {"echo", echo_source(3), echo, echo_expected(echo, 3)},
      {"image", image_source(kImageBufcap), image, image_expected(image)},
      {"large", large_source(5, 17), large, large_expected(large, 5, 17)},
  };
  auto fe = create_front_end(front_end_options(1, 1));
  bool all = true;
  for (const auto& c : cases) {
    auto dxo = compile_or_die(c.source, kPolicies, nullptr);
    if (!fe->register_tenant(c.name, dxo).is_ok()) {
      std::printf("%s: registration failed\n", c.name);
      all = false;
      continue;
    }
    auto response = fe->submit(c.name, c.request);
    Tally genuine, corrupted, wrong;
    genuine.op(response_ok(response, c.expected));
    // One response byte flipped.
    auto flipped = response;
    if (flipped.is_ok() && !flipped.value().empty() && !flipped.value()[0].empty())
      flipped.value()[0][flipped.value()[0].size() / 2] ^= 0x01;
    corrupted.op(response_ok(flipped, c.expected));
    // One expected byte wrong.
    Bytes expected = c.expected;
    expected[0] ^= 0x80;
    wrong.op(response_ok(response, expected));
    bool ok = genuine.failed() == 0 && corrupted.failed() == 1 && wrong.failed() == 1;
    std::printf("%-6s genuine response: %s; corrupted byte: %s; wrong expected value: %s\n",
                c.name, genuine.failed() == 0 ? "passes" : "FAILS",
                corrupted.failed() == 1 ? "counted failed" : "NOT CAUGHT",
                wrong.failed() == 1 ? "counted failed" : "NOT CAUGHT");
    all = all && ok;
  }
  std::printf("selftest: %s\n", all ? "ok" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace perfbench

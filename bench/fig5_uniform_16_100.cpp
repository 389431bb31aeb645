// Figure 5 (and its appendix twin Figure 7, the update-throughput series):
// throughput scalability with 16 B keys / 100 B values, uniform key choice.
// Emits CSV rows figure,scenario,batch,dist,kv,index,threads,total,update.
#include "bench/harness.h"
#include "common/fixed_bytes.h"

int main(int argc, char** argv) {
  using namespace jiffy;
  const auto cli = bench::parse_cli(argc, argv);
  bench::run_figure<Key16, Value100>("fig5", "16/100B",
                                     KeyChooser::Kind::Uniform, cli);
  return 0;
}

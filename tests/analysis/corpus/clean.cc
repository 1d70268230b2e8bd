// Clean fixture: idiomatic code that must stay silent under every rule.
// Comments and strings mentioning new Gadget(), rand(), std::mutex,
// detach(), or std::ofstream must never fire — the code view blanks
// them before the regexes run.

#include "clean.h"

namespace corpus {

const char* kProse = "never call rand() or detach(); new is banned too";

int UseGadget() {
  std::unique_ptr<Gadget> g = MakeGadget();  /* not a raw new Gadget() */
  g->value = 7;
  return g->value;
}

}  // namespace corpus

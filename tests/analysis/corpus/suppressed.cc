// Suppression fixture: every would-be finding here carries a matching
// `lint:allow(<rule>)` marker, so the file must come out clean. A
// marker for the wrong rule does NOT suppress (the last function).

namespace corpus {

struct Widget {
  int value = 0;
};

Widget* LegacyFactory() {
  return new Widget();  // lint:allow(raw-new-delete)
}

void LegacyFree(Widget* w) {
  delete w;  // lint:allow(raw-new-delete)
}

int DeliberatelyUnseeded() {
  return rand();  // lint:allow(banned-random)
}

int WrongMarkerDoesNotSuppress() {
  return rand();  // lint:allow(raw-new-delete) lint:expect(banned-random)
}

}  // namespace corpus

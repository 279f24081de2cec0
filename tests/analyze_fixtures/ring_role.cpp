// dnh-analyze-fixture: path=src/pipeline/ring_role.cpp expect=ring-role@16,ring-role@17,ring-role@20,ring-role@27
// SPSC push/pop sites, single and batch (_n) forms, carry a role tag
// naming their side; an untagged site and a site tagged with the other
// side are flagged. A tag covers the two lines below it, no further.
namespace dnh::pipeline {

template <typename T>
struct FakeRing {
  bool try_push(const T&) { return true; }
  bool try_pop(T&) { return false; }
  std::size_t try_push_n(const T*, std::size_t) { return 0; }
  std::size_t try_consume_n(std::size_t, int) { return 0; }
};

void misuse(FakeRing<int>& ring, const int* items) {
  ring.try_push(42);
  ring.try_push_n(items, 4);
  int out = 0;
  // dnh-analyze: ring-producer (consumer-side op under a producer tag)
  ring.try_pop(out);
}

void dispatcher(FakeRing<int>& ring, const int* items) {
  // dnh-analyze: ring-producer (dispatcher thread owns the push side)
  ring.try_push(7);
  ring.try_push_n(items, 4);
  ring.try_push(8);
}

void worker(FakeRing<int>& ring) {
  int out = 0;
  // dnh-analyze: ring-consumer (worker thread owns the pop side)
  while (ring.try_pop(out)) {
  }
  // dnh-analyze: ring-consumer
  ring.try_consume_n(8, 0);
}

}  // namespace dnh::pipeline

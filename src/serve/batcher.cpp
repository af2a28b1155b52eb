#include "serve/batcher.hpp"

#include "core/options.hpp"
#include "util/error.hpp"

namespace pdslin::serve {

namespace {

/// Move every request from `queue` into `batch` that matches its key and
/// its solve options (one solve_multi call runs one set of GMRES options)
/// while the width budget holds. Non-matching requests keep their relative
/// order.
std::size_t absorb_matching(Batch& batch, std::deque<PendingRequest>& queue,
                            index_t max_nrhs) {
  std::size_t absorbed = 0;
  index_t width = batch.total_nrhs();
  for (auto it = queue.begin(); it != queue.end();) {
    // front() is re-read every time: absorbing may reallocate the vector.
    if (it->key == batch.key &&
        same_solve_options(it->req.opt, batch.requests.front().req.opt) &&
        width + it->req.nrhs <= max_nrhs) {
      width += it->req.nrhs;
      batch.requests.push_back(std::move(*it));
      it = queue.erase(it);
      ++absorbed;
    } else {
      ++it;
    }
  }
  return absorbed;
}

}  // namespace

Batch take_batch(std::deque<PendingRequest>& queue, const BatcherConfig& cfg) {
  PDSLIN_CHECK_MSG(!queue.empty(), "take_batch on an empty queue");
  Batch batch;
  batch.key = queue.front().key;
  batch.requests.push_back(std::move(queue.front()));
  queue.pop_front();
  absorb_matching(batch, queue, cfg.max_batch_nrhs);
  return batch;
}

std::size_t extend_batch(Batch& batch, std::deque<PendingRequest>& queue,
                         const BatcherConfig& cfg) {
  return absorb_matching(batch, queue, cfg.max_batch_nrhs);
}

}  // namespace pdslin::serve

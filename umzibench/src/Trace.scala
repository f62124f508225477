package umzibench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder of the traced run.
  *
  * A span has a name, a start and an end (System.nanoTime) and the span that
  * was open when it started. Spans are recorded only from the benchmark's own
  * code, around calls into the program's public functions; with tracing off
  * `span` just runs its body.
  */
final class Tracer(var enabled: Boolean) {
  private val names = ArrayBuffer.empty[String]
  private val parents = ArrayBuffer.empty[Int]
  private val starts = ArrayBuffer.empty[Long]
  private val ends = ArrayBuffer.empty[Long]
  private var open: List[Int] = Nil

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = begin(name, System.nanoTime())
      try body
      finally end(id, System.nanoTime())
    }

  /** Record a span whose interval was measured elsewhere (hook callbacks). */
  def closed(name: String, start: Long, stop: Long): Unit =
    if (enabled) end(begin(name, start), stop)

  private def begin(name: String, t: Long): Int = {
    val id = names.size
    names += name; parents += open.headOption.getOrElse(-1); starts += t; ends += -1L
    open = id :: open
    id
  }

  private def end(id: Int, t: Long): Unit = {
    ends(id) = t
    open = open.filterNot(_ == id)
  }

  /** Number of spans named `name`. */
  def spans(name: String): Int = names.count(_ == name)

  /** Summed duration of the spans named `name`, in nanos. */
  def totalNanos(name: String): Long =
    names.indices.iterator.filter(names(_) == name).map(i => ends(i) - starts(i)).sum

  /** Summed self time of the spans named `name`: each span's duration minus
    * the part of it its child spans cover.
    */
  def selfNanos(name: String): Long = {
    val childCover = new Array[Long](names.size)
    names.indices.foreach { i =>
      val p = parents(i)
      if (p >= 0) childCover(p) += ends(i) - starts(i)
    }
    names.indices.iterator.filter(names(_) == name)
      .map(i => ends(i) - starts(i) - childCover(i)).sum
  }

  /** Per span name: count, total ms and self ms, for the run's detail line. */
  def summary: Seq[(String, Int, Double, Double)] =
    names.distinct.sorted.toSeq.map(n => (n, spans(n), totalNanos(n) / 1e6, selfNanos(n) / 1e6))
}

package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** A timed region of the benchmark's own code around one call into a layer
  * of the program. Spark work is attributed to the innermost open span.
  */
final class Span(val run: String, val id: Int, val parent: Int, val name: String,
                 val pass: Int, val start: Long) {
  var end: Long = start
  var jobs = 0
  var stages = 0
  var tasks = 0
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  def ms: Double = (end - start) / 1e6
}

/** Inclusive counters of a span: its own work plus that of its descendants. */
final case class Totals(ms: Double, selfMs: Double, jobs: Int, stages: Int, tasks: Int,
                        shuffleReadBytes: Long, shuffleWriteBytes: Long)

/** Opens spans around calls; the untraced run uses [[Tracer.Off]]. */
trait Tracer {
  def span[A](name: String)(f: => A): A
}

object Tracer {
  object Off extends Tracer {
    def span[A](name: String)(f: => A): A = f
  }
}

/** In-memory span recorder. Spark jobs are attributed to spans through a
  * local property set on the calling thread around each call: listener
  * events arrive asynchronously, so counters read at span end would miss
  * work. Call [[drain]] before reading the counters.
  */
final class Recorder(val run: String) extends SparkListener with Tracer {
  private val Key = "perfbench.span"
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stageSpan = mutable.HashMap.empty[Int, Span]
  private var open = List.empty[Span]
  private var sc: SparkContext = _
  private var unattributed = 0
  /** Pass index stamped on new spans; set by the pass loop. */
  var pass = 0

  /** Stage ids restart with each SparkContext, so the stage map does too. */
  def attach(ctx: SparkContext): Unit = {
    synchronized(stageSpan.clear())
    sc = ctx
    ctx.addSparkListener(this)
  }

  def detach(): Unit = { drain(); sc.removeSparkListener(this); sc.setLocalProperty(Key, null) }

  def drain(): Unit = org.apache.spark.PerfbenchAccess.drainListenerBus(sc)

  def span[A](name: String)(f: => A): A = {
    val s = synchronized {
      val sp = new Span(run, spans.size, open.headOption.map(_.id).getOrElse(-1), name, pass,
        System.nanoTime())
      spans += sp
      sp
    }
    open = s :: open
    sc.setLocalProperty(Key, s.id.toString)
    try f
    finally {
      s.end = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(Key, open.headOption.map(_.id.toString).orNull)
    }
  }

  private def spanOf(props: java.util.Properties): Option[Span] =
    Option(props).flatMap(p => Option(p.getProperty(Key))).map(id => spans(id.toInt))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    spanOf(e.properties) match {
      case Some(s) =>
        s.jobs += 1
        e.stageInfos.foreach(si => stageSpan(si.stageId) = s)
      case None => unattributed += 1
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { s =>
      s.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        s.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  def all: Seq[Span] = synchronized(spans.toList)
  def jobsOutsideSpans: Int = synchronized(unattributed)

  def totals: Map[Int, Totals] = synchronized {
    val children = spans.groupBy(_.parent)
    val memo = mutable.HashMap.empty[Int, Totals]
    def go(s: Span): Totals = memo.getOrElseUpdate(s.id, {
      val kids = children.getOrElse(s.id, Nil).map(go)
      Totals(s.ms, s.ms - kids.map(_.ms).sum,
        s.jobs + kids.map(_.jobs).sum, s.stages + kids.map(_.stages).sum,
        s.tasks + kids.map(_.tasks).sum,
        s.shuffleReadBytes + kids.map(_.shuffleReadBytes).sum,
        s.shuffleWriteBytes + kids.map(_.shuffleWriteBytes).sum)
    })
    spans.map(s => s.id -> go(s)).toMap
  }

  /** All spans with inclusive and self figures, as a JSON document. */
  def toJson: String = {
    val tot = totals
    all.map { s =>
      val t = tot(s.id)
      s"""{"run":"${s.run}","id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""pass":${s.pass},"start_ns":${s.start},"end_ns":${s.end},"ms":${t.ms},""" +
        s""""self_ms":${t.selfMs},"jobs":${t.jobs},"stages":${t.stages},"tasks":${t.tasks},""" +
        s""""shuffle_read_bytes":${t.shuffleReadBytes},"shuffle_write_bytes":${t.shuffleWriteBytes}}"""
    }.mkString("[\n", ",\n", "\n]\n")
  }
}

program fuzz
  input integer :: n = 5
  integer :: i0, i1, i2, i3, i4
  integer :: a0(0:8, 0:n+2)
  integer :: a1(10, 12)
  integer :: a2(n, -1:8)
  integer :: c0(0:n+1)
  a2(4, 5) = a0(0, 0) + 3
  c0(6) = a1(2, 14) + 2
  do i0 = 4, 9, 3
    a1(4, 5) = i0 + 2
  end do
  do i1 = 4, 4, 2
    do i2 = 6, 6, -3
      i3 = 3
      while (i3 < 3) do
        print i2
        call sub0(n, 6, c0)
        call sub0(n, 6, c0)
        i3 = i3 + 1
      end while
      if (i2 /= 8) then
        a2(i1-5, -1*i2+9) = a2(i1, i2-1) + 3
      else
        print i2
      end if
      do i4 = 1, i2, 3
        a0(i1+4, 3) = 15
        call sub0(n, i1, c0)
        call sub0(n, i4, c0)
      end do
      if (i1 == 6) then
        cycle
      end if
    end do
  end do
  print 73
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(0:m+1)
  do k = 1, m
    x(k-1) = k + j
    x(k-1) = x(k-1) + m
  end do
  x(j) = x(j) + 1
end subroutine
